// Package core implements the ParADE runtime system (paper §3, §5): a
// multi-threaded SDSM cluster runtime with a hybrid execution model. The
// OpenMP-level API lives on Thread (fork-join Parallel, work-sharing For,
// Critical/Atomic/Single/Master, reductions, barriers); the consistency
// machinery underneath is the HLRC engine plus, in Hybrid mode, explicit
// message-passing collectives for directives that guard small data.
//
// The same runtime configured with Mode=SDSM and HomeMigration=false is
// the conventional lock-based SDSM baseline (KDSM) used by the paper's
// microbenchmarks; parade/internal/kdsm packages that configuration.
//
// Everything here executes under the deterministic simulation kernel
// (internal/sim), which runs exactly one simulated process at a time.
// That invariant is why runtime state is mutated with plain field writes
// and why the optional observability recorder (Config.Obs, internal/obs)
// adds no synchronization.
package core

import (
	"fmt"
	"time"

	"parade/internal/dsm"
	"parade/internal/hlrc"
	"parade/internal/netsim"
	"parade/internal/obs"
)

// Mode selects how synchronization and work-sharing directives execute.
type Mode int

const (
	// Hybrid is the ParADE execution model: directives over small,
	// analyzable data use message-passing collectives; everything else
	// uses the SDSM with migratory home.
	Hybrid Mode = iota
	// SDSM is the conventional model: every directive maps to SDSM locks
	// and barriers (the KDSM baseline).
	SDSM
)

func (m Mode) String() string {
	if m == Hybrid {
		return "parade-hybrid"
	}
	return "sdsm"
}

// Config describes one simulated cluster run. The protocol, runtime and
// scheduler costs are constants, not fields (DESIGN.md §6 lists each);
// the fabric preset carries the network's.
type Config struct {
	Nodes          int
	ThreadsPerNode int // computational threads per node
	CPUsPerNode    int // processors per node; each time-slices at sim.DefaultQuantum
	Fabric         netsim.Fabric
	Mode           Mode
	HomeMigration  bool
	LockCaching    bool // lazy-release lock tokens for the SDSM lock path
	SmallThreshold int  // bytes; directives guarding <= this use collectives
	ShmBytes       int  // shared memory pool size
	Seed           int64
	// Lanes has no effect; kept only because bench/e2e names it;
	// ROADMAP 1(a) deletes it.
	Lanes int
	// Strategy is the atomic page update method; its UpdateCost is
	// charged per installed page.
	Strategy dsm.UpdateStrategy
	// Policy selects the hlrc protocol policy: "" (legacy, an alias of
	// "invalidate": the paper's protocol), "invalidate", "update", or "adaptive"
	// (per-page online classification; see internal/hlrc/policy.go).
	// Adaptive also derives SmallThreshold from the fabric and the
	// protocol's cost constants (AutoThreshold) when the threshold is
	// left zero.
	Policy string
	// Obs, when non-nil, attaches an observability recorder to the run:
	// the protocol engine, the network, the MPI library, and the runtime
	// all record into it (counters, latency histograms, trace sinks), and
	// the run's Report carries its Metrics. Nil — the default — keeps
	// every recording site on its zero-overhead disabled path.
	Obs *obs.Recorder
	// Faults, when non-nil, attaches a netsim fault plane (and with it the
	// reliability sublayer) to the interconnect: messages are dropped,
	// duplicated, reordered, and delayed per the profile, and recovered
	// underneath the protocol layers. Nil — the default — keeps the ideal
	// fabric with its original byte-identical timing.
	Faults *netsim.Profile
	// Hetero, when non-nil, makes the cluster heterogeneous: durations
	// charged to a node's processors (thread compute, message receive
	// processing) are multiplied by its speed factor, so node choice —
	// and Target offload placement in particular — becomes observable in
	// run times. Nil — the default — is the uniform cluster with its
	// original byte-identical timing. The profile is part of the machine
	// description: results stay bit-identical across fault and crash
	// schedules for a fixed profile.
	Hetero *netsim.Hetero
	// Crash, when active, schedules deterministic crash-stop node
	// failures at barrier points and arms the engine's
	// checkpoint/recovery protocol (see internal/hlrc). Requires a fault
	// plane for failure detection; when Faults is nil, Run attaches the
	// zero-link-fault crash-only plane automatically. Every crashed node
	// restarts from its buddy checkpoint.
	Crash *hlrc.CrashPlan
	// Deadline, when positive, bounds the run's host wall-clock time: the
	// event loop polls a monotonic clock and, once the budget is spent,
	// aborts the run with an error matching ErrCanceled and wrapping a
	// *DeadlineError — instead of hanging on a livelocked configuration.
	// Host time only: it never perturbs virtual time or results of runs
	// that finish within the budget.
	Deadline time.Duration
	// Cancel, when non-nil, is a cooperative cancellation hook polled
	// periodically from the event loop (sim.DefaultCancelEvery events). A
	// non-nil return cancels the run: Run returns an error matching
	// ErrCanceled that wraps the hook's cause, alongside a partial Report
	// (counters and timing up to the cancel point).
	Cancel func() error
}

// DefaultSmallThreshold is the paper's update/invalidate switch point for
// the Linux cluster (§5.2.1).
const DefaultSmallThreshold = 256

// WithDefaults fills zero fields with the paper's defaults: VIA fabric,
// hybrid mode with home migration, 256-byte threshold, dual Pentium-III
// nodes (2 CPUs), one thread per node, 16 MiB pool.
func (c Config) WithDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.ThreadsPerNode == 0 {
		c.ThreadsPerNode = 1
	}
	if c.CPUsPerNode == 0 {
		c.CPUsPerNode = 2
	}
	if c.Fabric.Name == "" {
		c.Fabric = netsim.VIA()
	}
	if c.ShmBytes == 0 {
		c.ShmBytes = 16 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Strategy == dsm.SingleMapping {
		c.Strategy = dsm.FileMapping
	}
	// The threshold fill runs after the fabric fill: the adaptive policy
	// replaces the paper's lexical 256-byte constant with the value
	// derived from this run's fabric, the protocol's cost constants, and
	// the node count (§5.2.1's own stated derivation).
	if c.SmallThreshold == 0 {
		if c.Policy == hlrc.PolicyAdaptive {
			c.SmallThreshold = AutoThreshold(c.Fabric, c.Nodes)
		} else {
			c.SmallThreshold = DefaultSmallThreshold
		}
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("core: Nodes = %d", c.Nodes)
	}
	if c.ThreadsPerNode < 1 {
		return fmt.Errorf("core: ThreadsPerNode = %d", c.ThreadsPerNode)
	}
	if c.CPUsPerNode < 1 {
		return fmt.Errorf("core: CPUsPerNode = %d", c.CPUsPerNode)
	}
	if !c.Strategy.Dual() {
		return fmt.Errorf("core: update strategy %v cannot support a multi-threaded SDSM (atomic page update problem)", c.Strategy)
	}
	if c.SmallThreshold < 8 {
		return fmt.Errorf("core: SmallThreshold = %d", c.SmallThreshold)
	}
	if !hlrc.ValidPolicy(c.Policy) {
		return &PolicyConfigError{Policy: c.Policy, Reason: fmt.Sprintf(
			"unknown protocol policy (valid: %q, %q, %q, or empty for legacy)",
			hlrc.PolicyInvalidate, hlrc.PolicyUpdate, hlrc.PolicyAdaptive)}
	}
	if c.Deadline < 0 {
		return fmt.Errorf("core: Deadline = %v (must be >= 0; 0 disables the wall-clock guard)", c.Deadline)
	}
	if err := c.Hetero.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Hetero != nil && len(c.Hetero.Factors) > c.Nodes {
		return fmt.Errorf("core: Hetero has %d factors for %d nodes", len(c.Hetero.Factors), c.Nodes)
	}
	if err := c.Crash.Validate(c.Nodes); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Configurations used throughout the paper's evaluation (§6.2).

// Config1T1C is "1Thread-1CPU": a uniprocessor kernel, one processor
// handling both computation and communication. All three presets run the
// full ParADE runtime: hybrid directives and migratory home.
func Config1T1C(nodes int) Config {
	return Config{Nodes: nodes, ThreadsPerNode: 1, CPUsPerNode: 1, HomeMigration: true}.WithDefaults()
}

// Config1T2C is "1Thread-2CPU": the SMP kernel with one computational
// thread, leaving a processor free for the communication thread.
func Config1T2C(nodes int) Config {
	return Config{Nodes: nodes, ThreadsPerNode: 1, CPUsPerNode: 2, HomeMigration: true}.WithDefaults()
}

// Config2T2C is "2Thread-2CPU": two computational threads plus the
// communication thread sharing two processors.
func Config2T2C(nodes int) Config {
	return Config{Nodes: nodes, ThreadsPerNode: 2, CPUsPerNode: 2, HomeMigration: true}.WithDefaults()
}
