package hlrc

import (
	"sort"

	"parade/internal/dsm"
)

// StateFingerprint hashes the cluster's final DSM state: every node's
// page states, permissions, and home directory, plus the contents of
// each page's authoritative copy (the frame held at its home node),
// plus the lock-subsystem state (manager tables, cached tokens) and
// the pending write-notice state (token notices, the master barrier's
// in-flight modifier sets — empty at quiescence).
// Replica frames are deliberately excluded — under lazy release
// consistency a replica fetched while the home was concurrently writing
// (legal for a nowait loop's non-conflicting accesses) snapshots
// timing-dependent bytes, while the home copy and every directory entry
// are fixed by program order alone. For the same reason the lock
// sections hash page SETS, never the last-modifier ids: which of two
// racing critical sections ran last is a timing artifact, but the union
// of pages ever dirtied under a lock is fixed by the program. Two runs
// that agree on the fingerprint converged to the same protocol state
// and shared memory — the chaos harness compares it between fault-free
// and fault-injected runs of the same program, and the crash harness
// between fault-free and crash-recovered runs.
func (e *Engine) StateFingerprint() uint64 {
	h := fnvOffset64
	writeNoticePages := func(notices []dsm.WriteNotice) {
		pages := make([]int, 0, len(notices))
		for _, wn := range notices {
			pages = append(pages, wn.Page)
		}
		sort.Ints(pages)
		h.int(len(pages))
		for _, pg := range pages {
			h.int(pg)
		}
	}
	for node, ns := range e.nodes {
		h.int(node)
		// A page's directory word is state<<16 | perm<<8 | home. The perm
		// byte is the table permission a node is born with (r-- on the
		// master, --- elsewhere) — a per-node constant; the live
		// permission is the memory image's and, like replica frames, not
		// hashed. It stays in the word because pinned fingerprints
		// (goldens, WAL, fleet cache) include it.
		perm := dsm.PermNone
		if node == 0 {
			perm = dsm.PermRead
		}
		dirWord := func(pi dsm.PageInfo) int { return int(pi.State)<<16 | int(perm)<<8 | pi.Home }
		npages := ns.table.Len()
		for base := 0; base < npages; base += dsm.ChunkPages {
			n := min(dsm.ChunkPages, npages-base)
			if !ns.table.Materialized(base) {
				// Every page of the chunk is the node's initial entry.
				pi := ns.table.Peek(base)
				w := dirWord(pi)
				if pi.Home != node && w == 0 {
					// Off the master the chunk is n zero words.
					h.zeros(8 * n)
					continue
				}
				if pi.Home == node && !ns.mem.Materialized(base) {
					// On the master: the same two words per page, the
					// second for the never-materialized home frame.
					for i := 0; i < n; i++ {
						h.int(w)
						h.int(0)
					}
					continue
				}
			}
			for pg := base; pg < base+n; pg++ {
				pi := ns.table.Peek(pg)
				h.int(dirWord(pi))
				if pi.Home != node {
					continue
				}
				frame := ns.mem.FrameIfPresent(pg)
				if frame == nil {
					// A never-materialized home frame reads as zeroes but is
					// distinguished from an explicit zero frame: materialization
					// at the home is deterministic, so the distinction is stable.
					h.int(0)
					continue
				}
				h.int(1 + len(frame))
				h.bytes(frame)
			}
		}
		// Cached lock tokens resident on this node.
		ids := make([]int, 0, len(ns.lockCache))
		for id := range ns.lockCache {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		h.int(len(ids))
		for _, id := range ids {
			nl := ns.lockCache[id]
			flags := 0
			if nl.cached {
				flags |= 1
			}
			if nl.inUse {
				flags |= 2
			}
			if nl.revokePending {
				flags |= 4
			}
			h.int(id<<8 | flags)
			writeNoticePages(nl.notices)
		}
	}
	// Manager-side lock state.
	lockIDs := make([]int, 0)
	for _, shard := range e.locks {
		for id := range shard {
			lockIDs = append(lockIDs, id)
		}
	}
	sort.Ints(lockIDs)
	h.int(len(lockIDs))
	for _, id := range lockIDs {
		ls := e.locks[e.lockManager(id)][id]
		holder := -1
		if ls.held {
			holder = ls.holder
		}
		h.int(id)
		h.int(holder)
		h.int(len(ls.queue))
		for _, q := range ls.queue {
			h.int(q)
		}
		pages := make([]int, 0, len(ls.notices))
		for pg := range ls.notices {
			pages = append(pages, pg)
		}
		sort.Ints(pages)
		h.int(len(pages))
		for _, pg := range pages {
			h.int(pg)
		}
		// An always-empty notice list: the slot stays so every pinned
		// MemHash that covers lock state keeps its value.
		h.int(0)
	}
	// The master barrier's pending write notices (empty at quiescence).
	mbPages := make([]int, 0, len(e.master.modifiers))
	for pg := range e.master.modifiers {
		mbPages = append(mbPages, pg)
	}
	sort.Ints(mbPages)
	h.int(len(mbPages))
	for _, pg := range mbPages {
		set := e.master.modifiers[pg]
		mods := make([]int, 0, len(set))
		for n := range set {
			mods = append(mods, n)
		}
		sort.Ints(mods)
		h.int(pg)
		h.int(len(mods))
		for _, n := range mods {
			h.int(n)
		}
	}
	// The adaptive classifier's program-order state (classes, hysteresis,
	// change epochs — never virtual times): two adaptive runs that agree
	// here made identical protocol elections. Absent (zero-cost) for
	// legacy and fixed policies, whose fingerprints must stay comparable
	// with pre-policy baselines.
	if e.cls != nil {
		e.cls.fold(h.int)
	}
	return uint64(h)
}
