package hlrc

import (
	"fmt"

	"parade/internal/dsm"
	"parade/internal/sim"
)

// EnsureRead guarantees that node may read addr: the fast path is a
// permission check (free, as on real hardware; Load skips even that on
// a TLB hit); a miss simulates the SIGSEGV fault handler, fetching the
// page from its home and blocking p until the atomic page update
// completes.
func (e *Engine) EnsureRead(p *sim.Proc, node, addr int) {
	ns := e.nodes[node]
	for !ns.mem.AppReadOK(addr) {
		e.cnt(node).ReadFaults++
		e.fault(p, node, dsm.PageOf(addr), false)
	}
}

// EnsureWrite guarantees that node may write addr, fetching the page if
// absent and creating a twin on the first write of the interval.
func (e *Engine) EnsureWrite(p *sim.Proc, node, addr int) {
	ns := e.nodes[node]
	for !ns.mem.AppWriteOK(addr) {
		e.cnt(node).WriteFaults++
		e.fault(p, node, dsm.PageOf(addr), true)
	}
}

// Load is the application read of the 8-byte word at addr on node: a
// hit in the node's software TLB reads the frame directly; a miss runs
// EnsureRead, so faults, fetches and virtual time are exactly those of
// an uncached access, and then caches the page.
func (e *Engine) Load(p *sim.Proc, node, addr int) uint64 {
	if w, ok := e.nodes[node].mem.AppLoad(addr); ok {
		return w
	}
	return e.loadMiss(p, node, addr)
}

// Store is the application write of w at addr on node: a hit on a page
// the TLB holds writable stores directly; a miss runs EnsureWrite
// (twinning the page on the first write of an interval) and then
// caches the page.
func (e *Engine) Store(p *sim.Proc, node, addr int, w uint64) {
	if !e.nodes[node].mem.AppStore(addr, w) {
		e.storeMiss(p, node, addr, w)
	}
}

func (e *Engine) loadMiss(p *sim.Proc, node, addr int) uint64 {
	e.EnsureRead(p, node, addr)
	m := e.nodes[node].mem
	m.Fill(dsm.PageOf(addr))
	return uint64(m.ReadI64(addr))
}

func (e *Engine) storeMiss(p *sim.Proc, node, addr int, w uint64) {
	e.EnsureWrite(p, node, addr)
	m := e.nodes[node].mem
	m.WriteI64(addr, int64(w))
	m.Fill(dsm.PageOf(addr))
}

// fault runs one iteration of the page fault handler for page pg.
func (e *Engine) fault(p *sim.Proc, node, pg int, write bool) {
	ns := e.nodes[node]
	e.cpus[node].Compute(p, e.cfg.Cost.FaultHandler)
	pi := ns.table.Peek(pg)
	switch pi.State {
	case dsm.Invalid:
		// First faulting thread starts the fetch.
		home := pi.Home
		if home == node {
			panic(fmt.Sprintf("hlrc: node %d is home of page %d but holds it INVALID", node, pg))
		}
		var t0 sim.Time
		if e.rec != nil {
			t0 = p.Now()
			e.rec.FetchStart(t0, node, pg, home, write)
		}
		if e.policy.observesReads() {
			// Classifier input: any demand fetch means this node consumed
			// the page this interval. Write-fault fetches are recorded too
			// — harmless, since the fetcher is then also in the modifier
			// set and the interval rules ignore the writer's own reads.
			ns.readObs[pg] = struct{}{}
		}
		ns.table.Set(pg, dsm.Transient)
		gate := sim.NewGate(e.sim)
		ns.fetch[pg] = gate
		e.requestPage(p, node, home, pg)
		gate.Wait(p)
		if e.rec != nil {
			e.rec.FetchDone(t0, p.Now(), node, pg, home)
		}

	case dsm.Transient:
		// Another thread is already fetching: mark waiters present.
		ns.table.Set(pg, dsm.Blocked)
		ns.fetch[pg].Wait(p)

	case dsm.Blocked:
		ns.fetch[pg].Wait(p)

	case dsm.ReadOnly:
		if !write {
			return // raced with a completed fetch; permission is there now
		}
		e.makeDirty(p, node, pg)

	case dsm.Dirty:
		// Valid and writable; nothing to do (permission check will pass).
	}
}

// requestPage asks home for page pg on node's behalf and counts the
// fetch where it is issued. Every pull goes through here — demand fault,
// map(to) prefetch, post-barrier refresh — so the per-node issued
// counts sum to what the homes serve; recovery's reissue of a stuck
// request is a Refetch, not a new fetch.
func (e *Engine) requestPage(p *sim.Proc, node, home, pg int) {
	e.cnt(node).FetchesIssued++
	e.send(p, node, home, msgPageReq, 16, pageReq{Page: pg})
}

// makeDirty performs the write-fault transition READ_ONLY -> DIRTY:
// non-home nodes take a twin so the interval's modifications can be
// diffed out at the next flush; the home writes its master copy in
// place (its page is the merge target, no twin needed — §5.2.2).
func (e *Engine) makeDirty(p *sim.Proc, node, pg int) {
	ns := e.nodes[node]
	if ns.table.Peek(pg).Home != node {
		e.cpus[node].Compute(p, e.cfg.Cost.TwinCreate)
		// Two local threads can write-fault on the same page and both
		// reach this handler; the Compute above yields the processor, so
		// re-check whether the other thread finished the transition. A
		// second twin taken now would snapshot the first thread's write
		// and silently drop it from the interval's diff — the
		// multi-threaded variant of the atomic-page-update problem. The
		// page can also have been invalidated during the yield (a cached
		// lock token's acquire applied write notices); EnsureWrite's loop
		// re-faults in either case.
		if ns.table.Peek(pg).State != dsm.ReadOnly {
			return
		}
		twin := e.frames.Get()
		copy(twin, ns.mem.Frame(pg))
		ns.table.At(pg).Twin = twin
		e.cnt(node).TwinsCreated++
	}
	ns.table.Set(pg, dsm.Dirty)
	ns.mem.SetAppPerm(pg, dsm.PermReadWrite)
	ns.dirty[pg] = struct{}{}
}
