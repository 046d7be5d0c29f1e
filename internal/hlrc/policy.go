package hlrc

import (
	"fmt"
	"slices"
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
// fault profiles and crash schedules. The classifier's
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
func ValidPolicy(name string) bool { return slices.Contains(PolicyNames(), name) }

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

// electHome elects a page's home at barrier time under policy. mods is
// the sorted modifier set of the ending interval (never empty), cur the
// current home, class the page's class (ClassUnknown outside the
// adaptive policy); migration mirrors Config.HomeMigration.
//
// Every policy but adaptive keeps the paper's §5.2.2 rule: a single
// modifier becomes the new home when migration is on; multiple modifiers
// keep the current home. The adaptive policy follows the single writer
// for migratory and producer-consumer pages regardless of the migration
// flag (ownership provably moves with the writer, so diffs become
// in-place home writes), keeps falsely-shared and read-mostly homes
// pinned (moving them buys nothing and churns the directory), and falls
// back to the paper's rule while a page is still unclassified.
func electHome(policy string, cur int, mods []int, class PageClass, migration bool) int {
	if len(mods) != 1 {
		return cur
	}
	if policy == PolicyAdaptive {
		switch class {
		case ClassMigratory, ClassProducerConsumer:
			return mods[0]
		case ClassFalselyShared, ClassReadMostly:
			return cur
		}
	}
	if migration {
		return mods[0]
	}
	return cur
}

// shouldPush decides, per modified page, between invalidate propagation
// (stale copies drop their mapping and re-fault on demand) and update
// propagation (stale copies eagerly refresh in parallel right after
// barrier departure). mods is the ending interval's sorted modifier set
// for the page (never empty) and nnodes the cluster size; together they
// distinguish partial from full write-sharing.
//
// The legacy and invalidate policies never push; the update policy
// always does. The adaptive rule is:
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
func shouldPush(policy string, class PageClass, mods []int, nnodes int) bool {
	switch policy {
	case PolicyUpdate:
		return true
	case PolicyAdaptive:
		switch class {
		case ClassReadMostly, ClassProducerConsumer:
			return true
		case ClassFalselyShared:
			return 2*len(mods) <= nnodes
		}
	}
	return false
}
