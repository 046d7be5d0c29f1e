package hlrc

import (
	"sort"

	"parade/internal/dsm"
	"parade/internal/sim"
)

// Explicit data movement for the runtime's target/map offload layer
// (internal/core): map(to) pages are pulled to the executing node in
// one batched prefetch before the offloaded body runs, and map(from)
// pages are queued on the spawning node for its next barrier-time
// refresh batch. Both reuse the engine's ordinary fetch machinery —
// page requests to homes, the per-page fetch gate shared with demand
// faults — so prefetched pages interoperate with concurrent faulting
// threads and with crash recovery exactly like any other fetch.

// PrefetchPages pulls every listed page that is not already valid at
// node, all fetches in flight at once — the map(to) clause: one batched
// round-trip replaces the demand faults the offloaded body would take
// one page at a time. Pages already valid (or homed here) are skipped;
// pages another thread is fetching are waited on, not re-requested.
func (e *Engine) PrefetchPages(p *sim.Proc, node int, pages []int) {
	ns := e.nodes[node]
	var gates []*sim.Gate
	for _, pg := range pages {
		pi := ns.table.Peek(pg)
		switch pi.State {
		case dsm.Invalid:
			home := pi.Home
			if home == node {
				continue // home holds the master copy; nothing to pull
			}
			if e.cls != nil {
				// A prefetch is a read observation, like a demand fetch:
				// the classifier must keep seeing this node as a consumer.
				ns.readObs[pg] = struct{}{}
			}
			if e.rec != nil {
				e.rec.FetchStart(p.Now(), node, pg, home, false)
			}
			ns.table.Set(pg, dsm.Transient)
			gate := sim.NewGate(e.sim)
			ns.fetch[pg] = gate
			e.requestPage(p, node, home, pg)
			gates = append(gates, gate)
		case dsm.Transient:
			// A demand fault is already fetching; join it and mark waiters
			// present so the completion path wakes us.
			ns.table.Set(pg, dsm.Blocked)
			gates = append(gates, ns.fetch[pg])
		case dsm.Blocked:
			gates = append(gates, ns.fetch[pg])
		case dsm.ReadOnly, dsm.Dirty:
			// Already valid locally.
		}
	}
	for _, g := range gates {
		g.Wait(p)
	}
}

// TaskFlush ends a task dependence interval: the executing node's
// pending modifications are flushed to their homes (acknowledged before
// return, so successors released afterwards fetch current data) and the
// resulting write notices are returned to travel the task's outgoing
// dependence edges, where ApplyNotices invalidates stale copies on the
// successors' nodes. This is the lock protocol's release/acquire pair
// with graph edges in place of lock tokens.
func (e *Engine) TaskFlush(p *sim.Proc, node int) []dsm.WriteNotice {
	notices := e.flush(p, node)
	e.shipMiniLog(p, node)
	return notices
}

// QueueRefresh adds pages to node's barrier-time refresh queue — the
// map(from) clause: the spawning node re-fetches the offloaded task's
// output pages eagerly at its next barrier instead of demand-faulting
// them afterwards. The queue is kept sorted and duplicate-free (it is
// shared with the update policy's push refreshes), and refreshPages
// skips entries that turn out to be valid at the barrier, so queueing
// is always safe — including for pages the task never ends up dirtying.
func (e *Engine) QueueRefresh(node int, pages []int) {
	if len(pages) == 0 {
		return
	}
	ns := e.nodes[node]
	merged := append(append([]int(nil), ns.refreshPending...), pages...)
	sort.Ints(merged)
	out := merged[:0]
	for i, pg := range merged {
		if i > 0 && pg == merged[i-1] {
			continue
		}
		out = append(out, pg)
	}
	ns.refreshPending = out
}
