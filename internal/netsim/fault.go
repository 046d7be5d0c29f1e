// Fault plane: deterministic injection of message loss, duplication,
// delay jitter, and per-node straggler slowdown into the simulated
// fabric. The plane is driven by its own seeded random source and by the
// virtual clock only, so a chaos run with a fixed (Config.Seed, profile
// Seed) pair is fully reproducible — every drop happens at the same
// virtual instant on every execution.
//
// Attaching a fault plane also arms the reliability sublayer
// (reliable.go): every inter-node message is sequenced, acknowledged,
// retransmitted on timeout, and delivered to the destination inbox
// exactly once and in per-link order, so the MPI library and the HLRC
// protocol above see an interface indistinguishable from the reliable
// fabric — only the timing changes. With no plane attached (the
// default), Send takes the original path untouched: virtual times and
// traces are byte-identical to a build without the fault plane.
package netsim

import (
	"fmt"
	"math/rand"

	"parade/internal/sim"
)

// LinkFaults configures injection on one directed link (or, as
// Profile.Default, on every link).
type LinkFaults struct {
	// DropProb is the probability a data or ack frame is lost on the wire.
	DropProb float64
	// DupProb is the probability a data frame is delivered twice.
	DupProb float64
	// ReorderProb is the probability a data frame is held back by a
	// random extra delay, letting up to ReorderWindow later frames
	// overtake it.
	ReorderProb float64
	// ReorderWindow bounds the extra delay in frames-worth of wire time
	// (serialization + latency of the delayed frame itself).
	ReorderWindow int
}

// Zero reports whether the link injects nothing.
func (lf LinkFaults) Zero() bool {
	return lf.DropProb == 0 && lf.DupProb == 0 && lf.ReorderProb == 0
}

// Profile is one named chaos scenario: the default per-link faults, an
// optional straggler node, and the retransmit-timer tuning.
type Profile struct {
	Name string
	// Seed drives the plane's private random source (independent of the
	// simulator seed, so the same traffic pattern can be replayed under
	// different fault sequences and vice versa).
	Seed int64
	// Default applies to every directed link without an override.
	Default LinkFaults
	// StragglerNode, when >= 0, scales that node's send overhead, NIC
	// serialization, and receive overhead by StragglerFactor.
	StragglerNode   int
	StragglerFactor float64
	// RTOCap bounds the exponential backoff. Zero selects a default.
	RTOCap sim.Duration
	// MaxAttempts bounds retransmissions per frame before the link is
	// declared down (a lost-cause guard against DropProb ~ 1). Zero
	// means 64.
	MaxAttempts int
}

// WithDefaults fills zero tuning fields.
func (p Profile) WithDefaults() Profile {
	if p.StragglerFactor == 0 {
		p.StragglerFactor = 1
	}
	if p.StragglerNode == 0 && p.StragglerFactor == 1 {
		p.StragglerNode = -1
	}
	if p.RTOCap == 0 {
		p.RTOCap = 100 * sim.Millisecond
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 64
	}
	return p
}

// Built-in fault profiles. Every profile keeps at least a small drop
// rate so each chaos run exercises the full loss-detection path
// (timeout, retransmit, duplicate suppression of the late original).

// ProfileDrop loses 5% of frames.
func ProfileDrop(seed int64) Profile {
	return Profile{Name: "drop", Seed: seed,
		Default: LinkFaults{DropProb: 0.05}}.WithDefaults()
}

// ProfileDup duplicates 2% of data frames and loses 1%.
func ProfileDup(seed int64) Profile {
	return Profile{Name: "dup", Seed: seed,
		Default: LinkFaults{DropProb: 0.01, DupProb: 0.02}}.WithDefaults()
}

// ProfileReorder delays 25% of data frames by up to 4 frames-worth of
// wire time and loses 1%.
func ProfileReorder(seed int64) Profile {
	return Profile{Name: "reorder", Seed: seed,
		Default: LinkFaults{DropProb: 0.01, ReorderProb: 0.25, ReorderWindow: 4}}.WithDefaults()
}

// ProfileStraggler slows node 1 down 4x and loses 1% of frames.
func ProfileStraggler(seed int64) Profile {
	p := Profile{Name: "straggler", Seed: seed,
		Default:       LinkFaults{DropProb: 0.01},
		StragglerNode: 1, StragglerFactor: 4}
	return p.WithDefaults()
}

// ProfileChaos combines every fault class within the built-in limits:
// 3% drop, 2% dup, 20% reorder over a 4-frame window, node 1 at 4x.
func ProfileChaos(seed int64) Profile {
	p := Profile{Name: "chaos", Seed: seed,
		Default:       LinkFaults{DropProb: 0.03, DupProb: 0.02, ReorderProb: 0.20, ReorderWindow: 4},
		StragglerNode: 1, StragglerFactor: 4}
	return p.WithDefaults()
}

// ProfileCrashOnly injects no link faults at all: it exists to arm the
// reliability sublayer (whose retry exhaustion is the crash detector)
// for runs whose only injected fault is a node crash. The tight retry
// budget keeps detection latency in the low-millisecond virtual range.
// It is deliberately NOT in Profiles(): the chaos matrix asserts every
// registered profile provokes at least one retransmission, which a
// zero-fault plane by design never does.
func ProfileCrashOnly(seed int64) Profile {
	return Profile{Name: "crash-only", Seed: seed,
		RTOCap: 200 * sim.Microsecond, MaxAttempts: 8}.WithDefaults()
}

// Profiles returns every built-in profile seeded from seed.
func Profiles(seed int64) []Profile {
	return []Profile{
		ProfileDrop(seed),
		ProfileDup(seed),
		ProfileReorder(seed),
		ProfileStraggler(seed),
		ProfileChaos(seed),
	}
}

// ProfileByName resolves a built-in profile.
func ProfileByName(name string, seed int64) (Profile, error) {
	for _, p := range Profiles(seed) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("netsim: unknown fault profile %q (have drop, dup, reorder, straggler, chaos)", name)
}

// FaultPlane is the attached injection state of one Network.
//
// Injection draws come from per-node random streams, each seeded from
// the profile seed by a splitmix64 step. A node's draws therefore depend
// only on its own deterministic event sequence, not on the order in
// which other nodes' traffic interleaves with it.
type FaultPlane struct {
	prof  Profile
	rngs  []*rand.Rand          // per-node injection streams
	links map[[2]int]LinkFaults // per-link overrides
}

// mixSeed derives node's private stream seed from the profile seed
// (one splitmix64 step over seed+node: decorrelates adjacent nodes).
func mixSeed(seed int64, node int) int64 {
	z := uint64(seed) + uint64(node+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// rngAt returns node's injection stream.
func (fp *FaultPlane) rngAt(node int) *rand.Rand { return fp.rngs[node] }

// EnableFaults attaches a fault plane (and with it the reliability
// sublayer) to the network. It must be called before any Send.
func (n *Network) EnableFaults(prof Profile) *FaultPlane {
	prof = prof.WithDefaults()
	fp := &FaultPlane{
		prof: prof,
		rngs: make([]*rand.Rand, len(n.inbox)),
	}
	for i := range fp.rngs {
		fp.rngs[i] = rand.New(rand.NewSource(mixSeed(prof.Seed, i)))
	}
	n.fault = fp
	n.rel = newRelState(len(n.inbox))
	n.down = make([]bool, len(n.inbox))
	return fp
}

// FaultPlane returns the attached plane (nil when injection is off).
func (n *Network) FaultPlane() *FaultPlane { return n.fault }

// SetLink overrides the fault configuration of the directed link
// from -> to (Profile.Default applies to every other link).
func (fp *FaultPlane) SetLink(from, to int, lf LinkFaults) {
	if fp.links == nil {
		fp.links = map[[2]int]LinkFaults{}
	}
	fp.links[[2]int{from, to}] = lf
}

// Profile returns the plane's (defaulted) profile.
func (fp *FaultPlane) Profile() Profile { return fp.prof }

// faultsFor resolves the injection config of one directed link.
func (fp *FaultPlane) faultsFor(from, to int) LinkFaults {
	if lf, ok := fp.links[[2]int{from, to}]; ok {
		return lf
	}
	return fp.prof.Default
}

// scale applies the straggler slowdown to a duration charged to node.
func (fp *FaultPlane) scale(node int, d sim.Duration) sim.Duration {
	if fp == nil || node != fp.prof.StragglerNode || fp.prof.StragglerFactor == 1 {
		return d
	}
	return sim.Duration(float64(d) * fp.prof.StragglerFactor)
}
