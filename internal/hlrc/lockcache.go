package hlrc

import (
	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// The cached (lazy-release) lock protocol: the KDSM paper's actual lock
// design (Yun et al., "An Efficient Lock Protocol for Home-based Lazy
// Release Consistency"). A node that releases a lock keeps the token;
// re-acquiring it costs no messages until another node asks. A remote
// request travels requester -> manager -> (revoke) holder -> (token)
// manager -> (grant) requester. The write notices of all critical
// sections ride with the token, so the acquirer invalidates exactly what
// release consistency requires.
//
// Enabled with Config.LockCaching; the default centralized protocol
// (lock.go) returns the token to the manager on every release. The
// ablation benchmark compares both against ParADE's collectives.

// nodeLock is a node's cached view of one lock.
type nodeLock struct {
	cached        bool // token is resident on this node
	inUse         bool // a local thread holds the lock
	revokePending bool // manager asked for the token back
	notices       []dsm.WriteNotice
}

func (ns *nodeState) nodeLockFor(id int) *nodeLock {
	nl := ns.lockCache[id]
	if nl == nil {
		nl = &nodeLock{}
		ns.lockCache[id] = nl
	}
	return nl
}

// acquireCached is AcquireLock's body under the cached protocol.
func (e *Engine) acquireCached(p *sim.Proc, node, id int) {
	ns := e.nodes[node]
	nl := ns.nodeLockFor(id)
	e.cnt(node).LockRequests++
	if nl.cached && !nl.inUse {
		// Token resident: zero-message re-acquire. Claim it BEFORE the
		// bookkeeping charge: the charge yields the processor and a
		// concurrent revoke on the communication thread would otherwise
		// see an idle token and ship it away mid-acquire.
		nl.inUse = true
		e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
		return
	}
	gate := sim.NewGate(e.sim)
	ns.lockGate[id] = gate
	mgr := e.lockManager(id)
	if mgr == node {
		e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
		e.cachedLockReq(p, node, id)
	} else {
		e.send(p, node, mgr, msgLockReq, 16, lockMsg{Lock: id})
	}
	gate.Wait(p)
}

// releaseCached is ReleaseLock's body under the cached protocol.
func (e *Engine) releaseCached(p *sim.Proc, node, id int) {
	ns := e.nodes[node]
	nl := ns.nodeLockFor(id)
	e.flush(p, node)
	notices := e.releaseNotices(node)
	e.shipMiniLog(p, node)
	nl.notices = mergeNotices(nl.notices, notices)
	nl.inUse = false
	if !nl.revokePending {
		// Lazy release: keep the token; no message (beyond refreshing
		// the buddy's token replica with the merged notices).
		e.forwardToken(p, node, id, nl)
		return
	}
	nl.revokePending = false
	nl.cached = false
	tok := nl.notices
	nl.notices = nil
	e.forwardToken(p, node, id, nl)
	mgr := e.lockManager(id)
	if mgr == node {
		e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
		e.tokenReturned(p, id, tok)
		return
	}
	e.send(p, node, mgr, msgLockToken, 16+8*len(tok), lockMsg{Lock: id, Notices: tok})
}

// cachedLockReq runs at the manager (process p on the manager node).
func (e *Engine) cachedLockReq(p *sim.Proc, from, id int) {
	ls := e.lockState(id)
	if ls.holder == from && ls.held {
		panic("hlrc: cached lock re-requested by its owner")
	}
	if !ls.held {
		// No owner anywhere: grant directly. The token starts empty
		// unless a recovery reclaimed it from a crashed holder with its
		// notices attached.
		ls.held = true
		ls.holder = from
		tok := ls.reclaimed
		ls.reclaimed = nil
		e.grantCachedToken(p, from, id, tok)
		return
	}
	e.cnt(e.lockManager(id)).LockWaits++
	ls.queue = append(ls.queue, from)
	if len(ls.queue) == 1 {
		// First waiter: recall the token from the current owner.
		e.sendRevoke(p, id, ls.holder)
	}
}

// sendRevoke asks the token's owner to hand it back when free.
func (e *Engine) sendRevoke(p *sim.Proc, id, owner int) {
	mgr := e.lockManager(id)
	if owner == mgr {
		e.revokeAt(p, mgr, id)
		return
	}
	e.send(p, mgr, owner, msgLockRevoke, 16, lockMsg{Lock: id})
}

// revokeAt processes a revoke on the owning node: if the lock is idle
// the token returns immediately, otherwise the release will send it.
func (e *Engine) revokeAt(p *sim.Proc, node, id int) {
	ns := e.nodes[node]
	nl := ns.nodeLockFor(id)
	if !nl.cached {
		panic("hlrc: revoke at a node without the token")
	}
	if nl.inUse {
		nl.revokePending = true
		return
	}
	nl.cached = false
	tok := nl.notices
	nl.notices = nil
	e.forwardToken(p, node, id, nl)
	mgr := e.lockManager(id)
	if mgr == node {
		e.tokenReturned(p, id, tok)
		return
	}
	e.send(p, node, mgr, msgLockToken, 16+8*len(tok), lockMsg{Lock: id, Notices: tok})
}

// tokenReturned runs at the manager when the token comes back: grant to
// the oldest waiter and recall it again if more are queued.
func (e *Engine) tokenReturned(p *sim.Proc, id int, tok []dsm.WriteNotice) {
	ls := e.lockState(id)
	if len(ls.queue) == 0 {
		// Spurious return (possible if the waiter vanished — not in this
		// runtime, so treat as free).
		ls.held = false
		ls.holder = -1
		return
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.holder = next
	e.grantCachedToken(p, next, id, tok)
	if len(ls.queue) > 0 {
		// More waiters: recall from the new owner right away. Manager ->
		// owner messages are FIFO, so the grant arrives first.
		e.sendRevoke(p, id, next)
	}
}

// grantCachedToken delivers the token (with its notices) to node `to`.
func (e *Engine) grantCachedToken(p *sim.Proc, to, id int, tok []dsm.WriteNotice) {
	mgr := e.lockManager(id)
	if to == mgr {
		e.applyCachedGrant(p, to, id, tok)
		return
	}
	e.send(p, mgr, to, msgLockGrant, 16+8*len(tok), lockMsg{Lock: id, Notices: tok})
}

// applyCachedGrant installs the token at the acquiring node. The token
// arrives already claimed (inUse) for the waiting acquirer, so a revoke
// processed before the acquirer resumes cannot ship it away.
func (e *Engine) applyCachedGrant(p *sim.Proc, node, id int, tok []dsm.WriteNotice) {
	ns := e.nodes[node]
	e.applyGrantInvalidations(node, tok)
	nl := ns.nodeLockFor(id)
	nl.cached = true
	nl.inUse = true
	nl.notices = tok
	e.forwardToken(p, node, id, nl)
	gate := ns.lockGate[id]
	delete(ns.lockGate, id)
	gate.Open()
}

// handleLockRevoke dispatches a revoke on the owner's comm thread.
func (e *Engine) handleLockRevoke(p *sim.Proc, node int, m *netsim.Message) {
	e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
	e.revokeAt(p, node, m.Payload.(lockMsg).Lock)
}

// handleLockToken dispatches a returned token on the manager's comm
// thread.
func (e *Engine) handleLockToken(p *sim.Proc, node int, m *netsim.Message) {
	e.cpus[node].Compute(p, e.cfg.Cost.LockManage)
	msg := m.Payload.(lockMsg)
	e.tokenReturned(p, msg.Lock, msg.Notices)
}

// mergeNotices appends new notices, replacing stale entries for the same
// page (the latest modifier wins, matching the manager-side map of the
// centralized protocol).
func mergeNotices(old, add []dsm.WriteNotice) []dsm.WriteNotice {
	if len(add) == 0 {
		return old
	}
	idx := make(map[int]int, len(old))
	for i, wn := range old {
		idx[wn.Page] = i
	}
	for _, wn := range add {
		if i, ok := idx[wn.Page]; ok {
			old[i] = wn
			continue
		}
		idx[wn.Page] = len(old)
		old = append(old, wn)
	}
	return old
}
