package hlrc

import (
	"sort"

	"parade/internal/dsm"
	"parade/internal/sim"
)

// Barrier executes the SDSM global barrier for one node. Exactly one
// representative process per node calls it (the runtime funnels all local
// threads through a node-local barrier first). The sequence implements
// §5.2.2: flush diffs to homes, await acknowledgements, send the barrier
// arrival to the master with write notices piggybacked, and wait for the
// departure that carries invalidations and home migrations.
func (e *Engine) Barrier(p *sim.Proc, node int) {
	var t0 sim.Time
	if e.rec != nil {
		t0 = p.Now()
	}
	if e.recov != nil {
		e.recov.barrierSeq[node]++
	}
	e.flush(p, node)
	// The arrival must carry the whole interval's write set, not just the
	// final flush's: pages already flushed mid-interval (lock releases,
	// task dependence intervals) are invisible to nodes that never
	// synchronized with the flusher, and the barrier is where their stale
	// copies must die. relNotices has accumulated exactly that set.
	notices := e.releaseNotices(node)
	// The interval ends here: departure will carry its notices to every
	// node, so releases after the barrier start accumulating afresh.
	for pg := range e.nodes[node].relNotices {
		delete(e.nodes[node].relNotices, pg)
	}
	reads := e.drainReads(node)
	if e.recov != nil {
		e.logBarrier(p, node, notices, reads)
		if ev := e.crashEventDue(node); ev >= 0 {
			// Crash here, at the quiescent point: the flush is acked,
			// the checkpoint log is durable at the buddy, and the
			// arrival below is never sent. The representative parks on
			// the crash gate until recovery releases it — via the normal
			// barrier departure, which may queue eager refreshes exactly
			// as on a fault-free node, so they drain here too.
			e.crashNow(p, node, ev)
			e.refreshPages(p, node)
			if e.rec != nil {
				e.rec.BarrierWait(t0, p.Now(), node)
			}
			return
		}
	}
	ns := e.nodes[node]
	ns.barrierGate = sim.NewGate(e.sim)
	e.send(p, node, 0, msgBarrierArrive, 16+8*len(notices)+8*len(reads),
		barrierArrive{Epoch: e.epoch, Notices: notices, Reads: reads})
	ns.barrierGate.Wait(p)
	e.refreshPages(p, node)
	if e.rec != nil {
		e.rec.BarrierWait(t0, p.Now(), node)
	}
}

// drainReads snapshots and clears node's interval read set for the
// barrier arrival, sorted for deterministic wire contents. Nil unless
// the policy observes reads, so legacy and fixed-policy arrivals carry
// no extra bytes.
func (e *Engine) drainReads(node int) []int {
	if !e.policy.observesReads() {
		return nil
	}
	ns := e.nodes[node]
	if len(ns.readObs) == 0 {
		return nil
	}
	reads := make([]int, 0, len(ns.readObs))
	for pg := range ns.readObs {
		reads = append(reads, pg)
		delete(ns.readObs, pg)
	}
	sort.Ints(reads)
	return reads
}

// refreshPages drains the update-propagation queue: every page the
// just-handled departure invalidated with Push set is re-fetched NOW,
// all fetches in flight at once, instead of serially on demand faults.
// This is where the update protocol wins: one barrier-time round-trip
// batch (no SIGSEGV cost, latencies overlapped) replaces per-access
// fault handling. The queue arrives page-sorted from the departure
// handler, so send order is deterministic.
func (e *Engine) refreshPages(p *sim.Proc, node int) {
	ns := e.nodes[node]
	if len(ns.refreshPending) == 0 {
		return
	}
	pages := ns.refreshPending
	ns.refreshPending = nil
	gates := make([]*sim.Gate, 0, len(pages))
	for _, pg := range pages {
		pi := ns.table.Peek(pg)
		if pi.State != dsm.Invalid || pi.Home == node {
			continue // raced with a migration back to us; nothing to refresh
		}
		if e.policy.observesReads() {
			// A refresh is a read observation: the classifier must keep
			// seeing this node as a consumer even though the push just
			// eliminated its demand faults (otherwise producer-consumer
			// pages would decay to migratory and oscillate).
			ns.readObs[pg] = struct{}{}
		}
		ns.table.Set(pg, dsm.Transient)
		gate := sim.NewGate(e.sim)
		ns.fetch[pg] = gate
		e.requestPage(p, node, pi.Home, pg)
		gates = append(gates, gate)
		e.cnt(node).PolicyRefreshes++
	}
	for _, g := range gates {
		g.Wait(p)
	}
}

// FlushForFork propagates the calling node's pending modifications to
// their homes and returns the write notices, without a global barrier.
// The runtime calls it on the master before forking a parallel region so
// serial-section writes are visible cluster-wide; the notices travel
// piggybacked on the region-start control messages and are applied with
// ApplyNotices on the receiving nodes.
func (e *Engine) FlushForFork(p *sim.Proc, node int) []dsm.WriteNotice {
	notices := e.flush(p, node)
	e.shipMiniLog(p, node)
	return notices
}

// ApplyNotices invalidates node's stale copies of the noticed pages (no
// home election: fork-time notices describe a single modifier's interval).
func (e *Engine) ApplyNotices(node int, notices []dsm.WriteNotice) {
	ns := e.nodes[node]
	for _, wn := range notices {
		if wn.Modifier == node {
			continue
		}
		pi := ns.table.Peek(wn.Page)
		if pi.Home == node {
			continue // the home merged the modifier's diffs already
		}
		if pi.State == dsm.ReadOnly {
			ns.table.Set(wn.Page, dsm.Invalid)
			ns.mem.SetAppPerm(wn.Page, dsm.PermNone)
			e.cnt(node).Invalidations++
			e.bumpInval(node, wn.Page)
			e.rec.Invalidated(node, wn.Page)
		}
	}
}

// flush pushes every dirty page's modifications to its home and returns
// the write notices describing them. Pages whose home is this node were
// modified in place (the master copy is already current); the others are
// diffed against their twins. The caller blocks until every home has
// acknowledged its diff bundle, which guarantees remote fetches ordered
// after the barrier see the new contents.
func (e *Engine) flush(p *sim.Proc, node int) []dsm.WriteNotice {
	ns := e.nodes[node]
	// Serialize flushes per node: the scratch buffers and twin frames
	// admit one flush at a time, and a release that waited here still
	// sees its own pages home (the active flush's bundle carried them,
	// and it only returns after the acks).
	for ns.flushing {
		if ns.flushIdle == nil {
			ns.flushIdle = sim.NewGate(e.sim)
		}
		ns.flushIdle.Wait(p)
	}
	if len(ns.dirty) == 0 {
		return nil
	}
	ns.flushing = true
	defer func() {
		ns.flushing = false
		if g := ns.flushIdle; g != nil {
			ns.flushIdle = nil
			g.Open()
		}
	}()
	var t0 sim.Time
	if e.rec != nil {
		t0 = p.Now()
	}
	pages := ns.flushPages[:0]
	for pg := range ns.dirty {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	ns.flushPages = pages
	// Clear exactly the snapshot, and before the first yield: another
	// thread may dirty new pages (or re-dirty flushed ones) while the
	// diff scans and sends below run, and those entries must survive
	// for the flush that owns them.
	for _, pg := range pages {
		delete(ns.dirty, pg)
		ns.relNotices[pg] = struct{}{}
	}

	// bundles and homes are per-node scratch: bundle slices keep empty
	// entries for homes seen in earlier flushes, so homes (the list of
	// destinations with a non-empty bundle this flush) drives the sends.
	bundles := ns.flushBundle
	homes := ns.flushHomes[:0]
	notices := make([]dsm.WriteNotice, 0, len(pages))
	for _, pg := range pages {
		pi := ns.table.At(pg)
		notices = append(notices, dsm.WriteNotice{Page: pg, Modifier: node})
		if pi.Home == node {
			// Home modifications are already merged in place; just end
			// the interval so the next write re-arms dirty tracking.
			ns.table.Set(pg, dsm.ReadOnly)
			ns.mem.SetAppPerm(pg, dsm.PermRead)
			if e.recov != nil && node != 0 {
				ns.flushSelf = append(ns.flushSelf, pg)
			}
			continue
		}
		e.cpus[node].Compute(p, e.cfg.Cost.DiffScan)
		d := e.diffs.Get()
		dsm.DiffInto(d, pg, pi.Twin, ns.mem.Frame(pg))
		c := e.cnt(node)
		c.DiffsCreated++
		c.DiffBytes += int64(d.WireBytes())
		if e.rec != nil {
			e.rec.DiffCreated(node, d.WireBytes())
		}
		if !d.Empty() {
			if len(bundles[pi.Home]) == 0 {
				homes = append(homes, pi.Home)
			}
			bundles[pi.Home] = append(bundles[pi.Home], d)
		} else {
			e.diffs.Put(d)
		}
		e.frames.Put(pi.Twin)
		pi.Twin = nil
		ns.table.Set(pg, dsm.ReadOnly)
		ns.mem.SetAppPerm(pg, dsm.PermRead)
	}

	if e.rec != nil {
		e.rec.FlushStart(p.Now(), node, len(pages), len(homes))
	}
	if len(homes) > 0 {
		sort.Ints(homes)
		ns.flushHomes = homes
		// The gate must exist before the first send: an ack can arrive on
		// the communication thread while we are still sending.
		ns.flushGate = sim.NewGate(e.sim)
		ns.flushPending = len(homes)
		if e.recov != nil && ns.flushAwait == nil {
			ns.flushAwait = map[int]bool{}
		}
		for _, h := range homes {
			diffs := bundles[h]
			bytes := 0
			for _, d := range diffs {
				bytes += d.WireBytes()
			}
			if e.recov != nil {
				ns.flushAwait[h] = true
			}
			e.send(p, node, h, msgDiff, bytes, diffMsg{Diffs: diffs})
		}
		ns.flushGate.Wait(p)
		// Every home has applied its diffs, so the acks returned their
		// ownership: the diffs go back to the pool (until here an
		// unacked bundle may still need a resend after a crash) and the
		// bundle slices back the next flush.
		for _, h := range homes {
			for _, d := range bundles[h] {
				e.diffs.Put(d)
			}
			bundles[h] = bundles[h][:0]
		}
	}
	if e.rec != nil {
		e.rec.FlushDone(t0, p.Now(), node, len(pages), len(homes))
	}
	return notices
}
