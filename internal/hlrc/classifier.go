package hlrc

import (
	"sort"

	"parade/internal/dsm"
	"parade/internal/sim"
)

// classifier is the adaptive policy's per-page online access-pattern
// observer. It lives entirely at the master node and consumes exactly
// the information completeBarrier already has — the interval's modifier
// sets — plus the interval read sets that arrivals piggyback when the
// adaptive policy is active. All inputs are pure functions of program
// order (sets, folded commutatively, of which nodes touched which pages
// between two barriers), so the classifier's evolution — and therefore
// every election it drives — is bit-identical across lane counts, fault
// profiles, and crash schedules. The only timing-dependent field,
// lastChangeTime, feeds the reclass_latency histogram and is excluded
// from the fingerprint fold.
type classifier struct {
	// pages holds the per-page state in lazily materialized chunks: only
	// pages some interval touched are ever written.
	pages dsm.Chunked[pageObs]
	// readers accumulates the current interval's read sets as arrivals
	// come in (page -> set of reading nodes). Folding is commutative, so
	// arrival order — which differs across lane counts — cannot matter.
	readers map[int]map[int]bool
	// pending carries reader evidence across read-only intervals to the
	// next modified interval. Producer-consumer sharing is inherently
	// cross-interval — write at barrier k, read during interval k+1 — and
	// many kernels ping-pong arrays, so a page alternates between "write
	// interval" and "read interval". Classifying each interval alone
	// would alternate the candidate (migratory, read-mostly, migratory,
	// ...) and hysteresis would never settle; instead, reads of a
	// previously-modified page bank here and the page's NEXT modified
	// interval classifies against the union.
	pending map[int]map[int]bool
}

// pageObs is the classifier's state for one page. class is the acting
// verdict; cand/streak implement two-interval hysteresis: a class change
// is applied only after the same candidate has been observed in two
// consecutive intervals that touched the page, so a single anomalous
// interval (a one-off scatter read of a migratory page, say) cannot flip
// the protocol back and forth.
type pageObs struct {
	class  PageClass
	cand   PageClass
	streak uint8
	// everMod records that some interval modified the page: from then on
	// read-only intervals bank evidence (classifier.pending) instead of
	// producing a read-mostly candidate, so write/read alternation
	// converges instead of oscillating.
	everMod bool
	// lastChangeEpoch is the barrier epoch of the last applied class
	// change (fingerprinted; epochs are program-order, times are not).
	lastChangeEpoch int
	// lastChangeTime is the virtual time of the last applied change,
	// kept only to feed the reclass_latency histogram. Never
	// fingerprinted: virtual time legitimately differs under faults.
	lastChangeTime sim.Time
	changed        bool // lastChange* fields are valid
}

// reclassEvent reports one applied class change to the caller, which
// owns counter bumps and histogram observation.
type reclassEvent struct {
	Page    int
	Class   PageClass
	SinceNs int64 // virtual ns since the page's previous change
	First   bool  // first-ever change: SinceNs is not meaningful
}

func newClassifier(npages int) *classifier {
	return &classifier{
		pages:   dsm.NewChunked(npages, pageObs{}),
		readers: map[int]map[int]bool{},
		pending: map[int]map[int]bool{},
	}
}

// noteReads folds one node's interval read set into the current
// interval's observations. pages is sorted, but folding into sets makes
// order irrelevant anyway.
func (c *classifier) noteReads(node int, pages []int) {
	for _, pg := range pages {
		set := c.readers[pg]
		if set == nil {
			set = map[int]bool{}
			c.readers[pg] = set
		}
		set[node] = true
	}
}

// classOf returns the page's acting class.
func (c *classifier) classOf(pg int) PageClass { return c.pages.Peek(pg).class }

// observe closes one barrier interval: every page touched in the
// interval (modified, read, or both) gets one observation, hysteresis
// advances, and the applied class changes are returned in ascending
// page order. mods is the master barrier's modifier map for the
// interval; the read sets are the ones noteReads accumulated since the
// previous observe. Iteration is over the sorted union of both maps, so
// the sequence of hash-map insertions (which differs run to run) never
// shows through.
func (c *classifier) observe(epoch int, now sim.Time, mods map[int]map[int]bool) []reclassEvent {
	touched := make([]int, 0, len(mods)+len(c.readers))
	for pg := range mods {
		touched = append(touched, pg)
	}
	for pg := range c.readers {
		if _, dup := mods[pg]; !dup {
			touched = append(touched, pg)
		}
	}
	sort.Ints(touched)

	var events []reclassEvent
	for _, pg := range touched {
		modset := mods[pg]
		po := c.pages.At(pg)
		if len(modset) == 0 && po.everMod {
			// A read-only interval of a previously-modified page: bank the
			// evidence for the page's next modified interval instead of
			// emitting a candidate that would fight the write intervals'.
			bank := c.pending[pg]
			if bank == nil {
				bank = map[int]bool{}
				c.pending[pg] = bank
			}
			for n := range c.readers[pg] {
				bank[n] = true
			}
			continue
		}
		var cand PageClass
		if len(modset) == 0 {
			cand = ClassReadMostly // never modified: a genuinely read-only page
		} else {
			po.everMod = true
			readers := c.readers[pg]
			if bank := c.pending[pg]; bank != nil {
				for n := range readers {
					bank[n] = true
				}
				readers = bank
				delete(c.pending, pg)
			}
			cand = intervalClass(modset, readers)
		}
		if cand == po.cand {
			if po.streak < 255 {
				po.streak++
			}
		} else {
			po.cand = cand
			po.streak = 1
		}
		// Two-interval hysteresis; the very first classification of an
		// unknown page applies immediately (there is no established
		// protocol worth protecting yet).
		apply := po.streak >= 2 || po.class == ClassUnknown
		if apply && cand != po.class {
			po.class = cand
			ev := reclassEvent{Page: pg, Class: cand, First: !po.changed}
			if po.changed {
				ev.SinceNs = int64(now - po.lastChangeTime)
			}
			po.lastChangeEpoch = epoch
			po.lastChangeTime = now
			po.changed = true
			events = append(events, ev)
		}
	}
	// The interval is closed: the next one starts with empty read sets.
	c.readers = map[int]map[int]bool{}
	return events
}

// intervalClass applies the classification rules for one modified
// interval of a page (Cudennec's taxonomy). readers is the union of the
// interval's own read set and the evidence banked over the read-only
// intervals since the page's previous modified interval:
//
//	>= 2 modifiers                      -> falsely shared
//	1 modifier, other nodes reading     -> producer-consumer
//	1 modifier, no other readers        -> migratory
//	0 modifiers (never-modified page)   -> read-mostly
//
// An eager refresh counts as a read (refreshPages records it), so a
// page being push-updated keeps its consumer evidence even though the
// pushes eliminate its demand faults — without that, a producer-consumer
// page would decay to migratory, stop being pushed, fault again, and
// oscillate forever.
func intervalClass(mods map[int]bool, readers map[int]bool) PageClass {
	switch {
	case len(mods) >= 2:
		return ClassFalselyShared
	case len(mods) == 1:
		var w int
		for n := range mods {
			w = n
		}
		for r := range readers {
			if r != w {
				return ClassProducerConsumer
			}
		}
		return ClassMigratory
	default:
		return ClassReadMostly
	}
}

// fold mixes the classifier's program-order state into the engine
// fingerprint: per-page class, hysteresis candidate and streak, and the
// epoch of the last applied change. lastChangeTime is deliberately
// excluded (virtual time differs between a faulted run and its
// fault-free baseline; the classes and the epochs they changed at must
// not). Pages still in their zero state are skipped, preceded by an
// index, so the fold is sparse but unambiguous.
func (c *classifier) fold(writeInt func(int)) {
	c.pages.Each(func(pg int, po *pageObs) {
		if po.class == ClassUnknown && po.cand == ClassUnknown &&
			po.streak == 0 && po.lastChangeEpoch == 0 && !po.everMod {
			return
		}
		flags := 0
		if po.everMod {
			flags = 1
		}
		writeInt(pg)
		writeInt(int(po.class)<<24 | int(po.cand)<<16 | int(po.streak)<<8 | flags)
		writeInt(po.lastChangeEpoch)
	})
	writeInt(-1)
	// The un-consumed reader evidence: the current interval's read sets
	// (empty at quiescence) and the banked cross-interval evidence (often
	// non-empty at run end — pages read after their last write). Both are
	// program-order inputs, so both fold.
	foldReaderMap(writeInt, c.readers)
	foldReaderMap(writeInt, c.pending)
}

func foldReaderMap(writeInt func(int), m map[int]map[int]bool) {
	pages := make([]int, 0, len(m))
	for pg := range m {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	writeInt(len(pages))
	for _, pg := range pages {
		set := m[pg]
		nodes := make([]int, 0, len(set))
		for n := range set {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		writeInt(pg)
		writeInt(len(nodes))
		for _, n := range nodes {
			writeInt(n)
		}
	}
}
