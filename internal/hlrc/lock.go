package hlrc

import (
	"sort"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// The distributed lock manager of a conventional SDSM (§2.2): a lock's
// home (manager) is lockID % nodes; acquiring costs a round trip to the
// manager, and the grant piggybacks write notices describing the pages
// previous holders dirtied, which the acquirer must invalidate. This is
// exactly the mechanism ParADE's hybrid path eliminates; the KDSM
// baseline configuration exercises it for every critical/single.

// lockManager returns the manager node of lock id. Under a crash plan
// every lock is managed by the master: manager state (holder, queue,
// accumulated notices) is not replicated, so it must live on the one
// node the crash model treats as immortal.
func (e *Engine) lockManager(id int) int {
	if e.recov != nil {
		return 0
	}
	return id % e.cfg.Nodes
}

// lockState returns lock id's manager-side state. The state lives in
// the manager node's shard, so only the manager's lane touches it.
func (e *Engine) lockState(id int) *lockState {
	shard := e.locks[e.lockManager(id)]
	ls := shard[id]
	if ls == nil {
		ls = &lockState{notices: map[int]int{}}
		shard[id] = ls
	}
	return ls
}

// AcquireLock blocks p until node holds global lock id.
func (e *Engine) AcquireLock(p *sim.Proc, node, id int) {
	var t0 sim.Time
	if e.rec != nil {
		t0 = p.Now()
	}
	if e.cfg.LockCaching {
		e.acquireCached(p, node, id)
	} else {
		e.acquireCentral(p, node, id)
	}
	if e.rec != nil {
		e.rec.LockAcquired(t0, p.Now(), node, id)
	}
}

// acquireCentral is AcquireLock's body under the centralized protocol.
func (e *Engine) acquireCentral(p *sim.Proc, node, id int) {
	ns := e.nodes[node]
	gate := sim.NewGate(e.sim)
	ns.lockGate[id] = gate
	e.cnt(node).LockRequests++
	mgr := e.lockManager(id)
	if mgr == node {
		e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
		e.lockRequest(p, node, id)
	} else {
		e.send(p, node, mgr, msgLockReq, 16, lockMsg{Lock: id})
	}
	gate.Wait(p)
}

// lockRequest runs at the manager (process p is on the manager node) for
// a request from node `from`.
func (e *Engine) lockRequest(p *sim.Proc, from, id int) {
	ls := e.lockState(id)
	if ls.held {
		e.cnt(e.lockManager(id)).LockWaits++
		ls.queue = append(ls.queue, from)
		return
	}
	ls.held = true
	ls.holder = from
	e.grantLock(p, from, id, ls)
}

// grantLock delivers the lock to node `to` with the accumulated write
// notices; p runs on the manager node. A self-grant short-circuits the
// network.
func (e *Engine) grantLock(p *sim.Proc, to, id int, ls *lockState) {
	notices := make([]dsm.WriteNotice, 0, len(ls.notices))
	for pg, mod := range ls.notices {
		notices = append(notices, dsm.WriteNotice{Page: pg, Modifier: mod})
	}
	mgr := e.lockManager(id)
	if mgr == to {
		e.applyGrant(to, id, notices)
		return
	}
	e.send(p, mgr, to, msgLockGrant, 16+8*len(notices), lockMsg{Lock: id, Notices: notices})
}

// handleLockReq processes a remote lock request at the manager.
func (e *Engine) handleLockReq(p *sim.Proc, node int, m *netsim.Message) {
	e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
	req := m.Payload.(lockMsg)
	if e.cfg.LockCaching {
		e.cachedLockReq(p, m.From, req.Lock)
		return
	}
	e.lockRequest(p, m.From, req.Lock)
}

// handleLockGrant installs a grant at the requester.
func (e *Engine) handleLockGrant(p *sim.Proc, node int, m *netsim.Message) {
	g := m.Payload.(lockMsg)
	if e.cfg.LockCaching {
		e.applyCachedGrant(p, node, g.Lock, g.Notices)
		return
	}
	e.applyGrant(node, g.Lock, g.Notices)
}

// applyGrant invalidates the pages named by the grant's write notices
// and releases the waiting acquirer.
func (e *Engine) applyGrant(node, id int, notices []dsm.WriteNotice) {
	ns := e.nodes[node]
	e.applyGrantInvalidations(node, notices)
	gate := ns.lockGate[id]
	delete(ns.lockGate, id)
	gate.Open()
}

// applyGrantInvalidations invalidates the pages a grant's write notices
// name (shared by the centralized and cached protocols).
func (e *Engine) applyGrantInvalidations(node int, notices []dsm.WriteNotice) {
	ns := e.nodes[node]
	for _, wn := range notices {
		if wn.Modifier == node {
			continue // our own writes do not invalidate our copy
		}
		pi := ns.table.Peek(wn.Page)
		if pi.Home == node {
			continue // the home copy is authoritative: diffs merged here
		}
		if pi.State == dsm.ReadOnly {
			ns.table.Set(wn.Page, dsm.Invalid)
			ns.mem.SetAppPerm(wn.Page, dsm.PermNone)
			e.cnt(node).Invalidations++
			e.bumpInval(node, wn.Page)
			e.rec.Invalidated(node, wn.Page)
		}
		// Dirty pages keep local modifications (lock discipline makes a
		// dirty conflicting page an application-level race); in-flight
		// fetches (TRANSIENT/BLOCKED) complete with home data anyway.
	}
}

// ReleaseLock flushes the critical section's modifications to their
// homes (release consistency) and returns the lock to the manager with
// the write notices attached.
func (e *Engine) ReleaseLock(p *sim.Proc, node, id int) {
	if e.cfg.LockCaching {
		e.releaseCached(p, node, id)
	} else {
		e.releaseCentral(p, node, id)
	}
	if e.rec != nil {
		e.rec.LockReleased(p.Now(), node, id)
	}
}

// releaseNotices builds the write notices a release carries: every page
// the node flushed since its last barrier (relNotices), not just the
// pages of the flush the release itself triggered — a concurrent
// thread's release may already have flushed this thread's writes, and
// they must still be attributed to this lock.
func (e *Engine) releaseNotices(node int) []dsm.WriteNotice {
	ns := e.nodes[node]
	if len(ns.relNotices) == 0 {
		return nil
	}
	pages := make([]int, 0, len(ns.relNotices))
	for pg := range ns.relNotices {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	notices := make([]dsm.WriteNotice, len(pages))
	for i, pg := range pages {
		notices[i] = dsm.WriteNotice{Page: pg, Modifier: node}
	}
	return notices
}

// releaseCentral is ReleaseLock's body under the centralized protocol.
func (e *Engine) releaseCentral(p *sim.Proc, node, id int) {
	e.flush(p, node)
	notices := e.releaseNotices(node)
	e.shipMiniLog(p, node)
	mgr := e.lockManager(id)
	if mgr == node {
		e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
		e.lockRelease(p, node, id, notices)
		return
	}
	e.send(p, node, mgr, msgLockRelease, 16+8*len(notices), lockMsg{Lock: id, Notices: notices})
}

// handleLockRelease processes a release at the manager.
func (e *Engine) handleLockRelease(p *sim.Proc, node int, m *netsim.Message) {
	e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
	rel := m.Payload.(lockMsg)
	e.lockRelease(p, m.From, rel.Lock, rel.Notices)
}

// lockRelease records the releaser's notices and hands the lock to the
// next queued requester, if any; p runs on the manager node.
func (e *Engine) lockRelease(p *sim.Proc, from, id int, notices []dsm.WriteNotice) {
	ls := e.lockState(id)
	if !ls.held || ls.holder != from {
		panic("hlrc: release of a lock not held by the releaser")
	}
	for _, wn := range notices {
		ls.notices[wn.Page] = wn.Modifier
	}
	if len(ls.queue) == 0 {
		ls.held = false
		return
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.holder = next
	e.grantLock(p, next, id, ls)
}
