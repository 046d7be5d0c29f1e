package hlrc

import (
	"fmt"
	"strings"
)

// Protocol policy: the propagation choice (invalidate vs. update), the
// home election rule, and — under the adaptive policy — the per-page
// access-pattern classifier that drives both. The paper hardcodes one
// policy for every page; Cudennec's S-DSM design-space argument (arXiv
// 2009.01507) is that the protocol should instead follow the observed
// access pattern of each datum, which is what PolicyAdaptive does at
// every barrier.
//
// Every decision is taken at the master inside completeBarrier, from
// inputs that are a pure function of program order (the interval's
// modifier and reader sets), so adaptive runs stay bit-identical across
// lane counts, fault profiles, and crash schedules. The classifier's
// state folds into StateFingerprint (state.go) so two runs that agree
// on the fingerprint also agree on every protocol election they made.

// Policy names accepted by Config.Policy.
const (
	// PolicyLegacy is the empty string, an alias of PolicyInvalidate: the
	// paper's protocol. The spelling stays distinct in configurations
	// and fleet fingerprints; the engine built is the same
	// (TestFixedInvalidateMatchesLegacy guards the alias).
	PolicyLegacy = ""
	// PolicyInvalidate is the paper's protocol as a fixed strategy:
	// invalidate propagation, single-modifier home migration gated on
	// Config.HomeMigration.
	PolicyInvalidate = "invalidate"
	// PolicyUpdate is the fixed update protocol: every page invalidated
	// at a barrier is eagerly refreshed (re-fetched in parallel) by the
	// nodes that held a copy, before the application faults on it.
	PolicyUpdate = "update"
	// PolicyAdaptive classifies every page online (read-mostly /
	// migratory / producer-consumer / falsely-shared) and re-elects its
	// propagation and home per class at each barrier.
	PolicyAdaptive = "adaptive"
)

// PolicyNames returns the accepted policy names in canonical order. The
// empty string (legacy) is listed first.
func PolicyNames() []string {
	return []string{PolicyLegacy, PolicyInvalidate, PolicyUpdate, PolicyAdaptive}
}

// ValidPolicy reports whether name is an accepted Config.Policy value.
func ValidPolicy(name string) bool {
	for _, n := range PolicyNames() {
		if n == name {
			return true
		}
	}
	return false
}

// policyNamesForErr renders the non-empty policy names for error text.
func policyNamesForErr() string {
	names := PolicyNames()[1:]
	return strings.Join(names, ", ")
}

// PageClass is the classifier's verdict on one page's access pattern
// over recent barrier intervals.
type PageClass uint8

// Access-pattern classes (Cudennec's taxonomy, §3 of arXiv 2009.01507).
const (
	// ClassUnknown: not enough observations yet; decisions fall back to
	// the legacy rules.
	ClassUnknown PageClass = iota
	// ClassReadMostly: intervals with readers and no writers dominate.
	ClassReadMostly
	// ClassMigratory: one writer per interval and no concurrent readers;
	// ownership moves (or stays) with the single writer.
	ClassMigratory
	// ClassProducerConsumer: one writer per interval with other nodes
	// reading the page in the same or following intervals.
	ClassProducerConsumer
	// ClassFalselyShared: several writers in one interval — independent
	// data sharing a page; invalidation churn is inherent, updates would
	// only add traffic.
	ClassFalselyShared
)

func (c PageClass) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ClassReadMostly:
		return "read-mostly"
	case ClassMigratory:
		return "migratory"
	case ClassProducerConsumer:
		return "producer-consumer"
	case ClassFalselyShared:
		return "falsely-shared"
	}
	return fmt.Sprintf("PageClass(%d)", uint8(c))
}

// HomeStrategy elects a page's home at barrier time. mods is the sorted
// modifier set of the ending interval (never empty), cur the current
// home. migration mirrors Config.HomeMigration. The returned node may
// still be overridden by the caller when it is out of the membership.
type HomeStrategy interface {
	ElectHome(pg, cur int, mods []int, class PageClass, migration bool) int
}

// PropagateStrategy decides, per modified page, between invalidate
// propagation (stale copies drop their mapping and re-fault on demand)
// and update propagation (stale copies eagerly refresh in parallel right
// after barrier departure). mods is the ending interval's sorted
// modifier set for the page (never empty) and nnodes the cluster size;
// together they let a strategy distinguish partial from full
// write-sharing.
type PropagateStrategy interface {
	ShouldPush(pg int, class PageClass, mods []int, nnodes int) bool
}

// legacyHome is the paper's §5.2.2 rule: a single modifier becomes the
// new home when migration is on; multiple modifiers keep the current
// home.
type legacyHome struct{}

func (legacyHome) ElectHome(_ int, cur int, mods []int, _ PageClass, migration bool) int {
	if migration && len(mods) == 1 && mods[0] != cur {
		return mods[0]
	}
	return cur
}

// adaptiveHome follows the single writer for migratory and
// producer-consumer pages regardless of the migration flag (ownership
// provably moves with the writer, so diffs become in-place home writes),
// keeps falsely-shared and read-mostly homes pinned (moving them buys
// nothing and churns the directory), and falls back to the legacy rule
// while a page is still unclassified.
type adaptiveHome struct{}

func (adaptiveHome) ElectHome(pg, cur int, mods []int, class PageClass, migration bool) int {
	if len(mods) != 1 {
		return cur
	}
	switch class {
	case ClassMigratory, ClassProducerConsumer:
		return mods[0]
	case ClassFalselyShared, ClassReadMostly:
		return cur
	default:
		return legacyHome{}.ElectHome(pg, cur, mods, class, migration)
	}
}

// pushNever is invalidate-only propagation (the legacy protocol).
type pushNever struct{}

func (pushNever) ShouldPush(int, PageClass, []int, int) bool { return false }

// pushAlways is the fixed update protocol.
type pushAlways struct{}

func (pushAlways) ShouldPush(int, PageClass, []int, int) bool { return true }

// pushByClass is the adaptive propagation rule:
//
//   - migratory pages invalidate — the single mover has no concurrent
//     readers, so an update would ship data nobody looks at;
//   - producer-consumer and read-mostly pages push — their consumers
//     provably re-read after each write, so every push converts a
//     demand-miss stall into an overlapped refresh;
//   - falsely-shared pages push only while the writer set is at most
//     half the cluster. That is Munin's write-shared case: a few nodes
//     touching disjoint parts of a page that all sharers re-access, so
//     update propagation replaces their invalidate-then-refetch
//     ping-pong. Once every node writes the page each interval, update
//     traffic is at its n×(n−1) maximum and each pushed copy is
//     immediately re-dirtied by its receiver — the textbook regime
//     where update protocols degrade — so the rule falls back to
//     invalidate;
//   - unclassified pages invalidate, the conservative default.
type pushByClass struct{ cls *classifier }

func (s pushByClass) ShouldPush(pg int, class PageClass, mods []int, nnodes int) bool {
	switch class {
	case ClassReadMostly, ClassProducerConsumer:
		return true
	case ClassFalselyShared:
		return 2*len(mods) <= nnodes
	}
	return false
}

// policyEngine bundles one policy's strategies.
type policyEngine struct {
	home HomeStrategy
	prop PropagateStrategy
	// cls is the per-page classifier; nil for the fixed policies. Its
	// presence also gates read-set observation (fault.go, barrier.go):
	// fixed policies need no reader information, so they add no bytes to
	// any protocol message.
	cls *classifier
}

// newPolicyEngine builds the policy engine for name. Unknown names
// panic: core.Config.Validate rejects them before an engine is ever
// constructed.
func newPolicyEngine(name string, npages int) *policyEngine {
	switch name {
	case PolicyLegacy, PolicyInvalidate:
		return &policyEngine{home: legacyHome{}, prop: pushNever{}}
	case PolicyUpdate:
		return &policyEngine{home: legacyHome{}, prop: pushAlways{}}
	case PolicyAdaptive:
		cls := newClassifier(npages)
		return &policyEngine{home: adaptiveHome{}, prop: pushByClass{cls}, cls: cls}
	}
	panic(fmt.Sprintf("hlrc: unknown protocol policy %q (valid: %s)", name, policyNamesForErr()))
}

// observesReads reports whether the policy needs per-interval read
// sets piggybacked on barrier arrivals (classifier input).
func (pe *policyEngine) observesReads() bool { return pe.cls != nil }

// classOf returns the page's current class (ClassUnknown for fixed
// policies, which carry no classifier).
func (pe *policyEngine) classOf(pg int) PageClass {
	if pe.cls == nil {
		return ClassUnknown
	}
	return pe.cls.classOf(pg)
}
