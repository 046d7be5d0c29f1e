package core

import (
	"fmt"
	"sort"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// The dependence resolver: the piece that turns the fork-join task pool
// into a task graph. Tasks declare in/out/inout dependences on handles
// (addresses, named objects, or named sibling tasks); the resolver
// computes the predecessor edges at spawn time from the spawning
// context's program order — the OpenMP sibling-task rule — and holds a
// task out of the ready deques until every predecessor has completed.
//
// Determinism. Edges depend only on spawn order within one context
// (one thread's root tasks between joins, or one parent task's
// children), never on which node executed anything, so the graph is
// identical across steal schedules, fault profiles, crash schedules,
// and lane counts. Release bookkeeping lives on the spawning context's
// node (the origin): all siblings of a context are spawned from one
// thread, which runs on one node, so edge computation and release are
// lane-confined. A task executed remotely (stolen, or pinned to a
// device) reports completion to its origin with a control message; the
// origin's communication thread propagates the completion through the
// graph and releases newly-ready tasks into the origin's deque. Held
// tasks are counted live/spawned from the moment of spawn, so both
// termination machineries — the legacy live count and the lane-mode
// quiescence vote — wait for them with no extra state.
//
// Cycles. Pure data dependences cannot form a cycle (every edge points
// from an earlier spawn to a later one). DepTask references can: a
// reference to a not-yet-registered name holds the task until a sibling
// registers it (forward references are the point of task handles), and
// the closing edge can complete a circle. Registration therefore runs a
// reachability check and rejects the program with a *TaskCycleError —
// surfaced as the run error of core.Run (errors.As-matchable), with the
// partial report alongside. A name nobody ever registers resolves
// vacuously when the context closes: at Taskwait for root tasks, at the
// parent's completion for nested ones.
//
// Memory semantics. Graph edges are synchronization, so they carry
// release consistency exactly like the lock protocol: a tracked task's
// completion flushes its node's modifications home and produces write
// notices (the release), and those notices travel its outgoing edges —
// a successor applies them before its body runs, invalidating stale
// copies (the acquire). Inherited notices accumulate along paths, so
// visibility is transitive through the graph, and a successor spawned
// after its predecessor already finished inherits through the context's
// completed-task record. Without this, a consumer could read the stale
// pre-producer copy of a page its node cached earlier, and the result
// would depend on the steal schedule.

// TaskCycleError is the typed error a run aborts with when a depend
// clause set makes the task graph circular (only possible through
// DepTask references — data dependences follow spawn order and cannot
// cycle). Unwrap core.Run's error with errors.As to detect it.
type TaskCycleError struct {
	// Name is the task name whose registration closed the cycle.
	Name string
}

func (e *TaskCycleError) Error() string {
	return fmt.Sprintf("core: task dependence cycle through task name %q", e.Name)
}

// runAbort carries the cause a thread aborted the run with.
type runAbort struct {
	err error
}

// depState is one spawning context's dependence bookkeeping: the handle
// history (last writer and readers since, per handle), the registered
// task names, and the forward references awaiting registration. Roots
// keep it on the Thread (reset at Taskwait); nested tasks keep it on
// the parent task (closed when the parent's body returns).
type depState struct {
	lastWriter map[DepHandle]uint64   // handle -> id of the last Out/InOut task
	readers    map[DepHandle][]uint64 // handle -> In tasks since the last writer
	names      map[string]uint64      // WithTaskName registrations (last wins)
	pending    map[string][]uint64    // unregistered name -> held waiter ids

	// done keeps the outgoing write notices of this context's completed
	// tasks, so a successor spawned after its predecessor finished (no
	// graph entry left to edge to) still inherits visibility. Cleared
	// with the context at the join, where the barrier supersedes it.
	done map[uint64][]dsm.WriteNotice
}

func newDepState() *depState {
	return &depState{
		lastWriter: map[DepHandle]uint64{},
		readers:    map[DepHandle][]uint64{},
		names:      map[string]uint64{},
		pending:    map[string][]uint64{},
		done:       map[uint64][]dsm.WriteNotice{},
	}
}

// depNode is one tracked task's entry in its origin node's graph:
// outstanding predecessor count, successor edges, and the task object
// itself while held. Completed tasks are deleted from the graph — a
// missing entry reads as "already done", which also absorbs completion
// messages that arrive after a join cleared the context.
type depNode struct {
	preds  int
	succs  []uint64
	task   *task     // non-nil while held out of the deques
	ds     *depState // the spawning context, for the completed-task record
	heldAt sim.Time  // spawn instant, for the dep-wait latency histogram
}

// depContext returns the dependence state of t's current spawning
// context, creating it on first use.
func (t *Thread) depContext() *depState {
	if t.curTask != nil {
		if t.curTask.depState == nil {
			t.curTask.depState = newDepState()
		}
		return t.curTask.depState
	}
	if t.depState == nil {
		t.depState = newDepState()
	}
	return t.depState
}

// resolveDeps computes tk's predecessor edges from the spawning
// context's handle history, updates the history, registers tk's name,
// and reports whether tk must be held (outstanding predecessors). Runs
// yield-free on the spawning thread, so the whole graph mutation is
// atomic under the simulation kernel's one-runnable-goroutine rule.
func (t *Thread) resolveDeps(tk *task, cfg *taskConfig) bool {
	n := t.node
	ds := t.depContext()
	if n.depGraph == nil {
		n.depGraph = map[uint64]*depNode{}
	}
	dn := &depNode{ds: ds, heldAt: t.p.Now()}
	n.depGraph[tk.id] = dn

	seenPred := map[uint64]bool{}
	addPred := func(pid uint64) {
		if pid == tk.id || seenPred[pid] {
			return
		}
		seenPred[pid] = true
		pdn := n.depGraph[pid]
		if pdn == nil {
			// Predecessor already completed: no edge, but its interval's
			// write notices still order before tk.
			tk.notices = mergeNotices(tk.notices, ds.done[pid])
			return
		}
		pdn.succs = append(pdn.succs, tk.id)
		dn.preds++
	}

	// Collapse duplicate handles first (first-occurrence order, so edge
	// order is deterministic): a handle named under both In and Out/InOut
	// acts as inout.
	var order []DepHandle
	write := map[DepHandle]bool{}
	for _, d := range cfg.deps {
		if _, seen := write[d.h]; !seen {
			order = append(order, d.h)
		}
		write[d.h] = write[d.h] || d.kind != In
	}

	for _, h := range order {
		if h.kind == depHandleTask {
			if pid, ok := ds.names[h.name]; ok {
				addPred(pid)
			} else {
				// Forward reference: hold until a sibling registers the
				// name (or the context closes and it resolves vacuously).
				ds.pending[h.name] = append(ds.pending[h.name], tk.id)
				dn.preds++
			}
			continue
		}
		if w, ok := ds.lastWriter[h]; ok {
			addPred(w)
		}
		if write[h] {
			for _, r := range ds.readers[h] {
				addPred(r)
			}
			delete(ds.readers, h)
			ds.lastWriter[h] = tk.id
		} else {
			ds.readers[h] = append(ds.readers[h], tk.id)
		}
	}

	if tk.name != "" {
		t.registerTaskName(ds, tk)
	}
	// The graph entry stays even when tk starts ready: later siblings may
	// still add successor edges (tk is now a reader or last writer in the
	// handle history, or a named task). Completion deletes it.
	if dn.preds == 0 {
		return false
	}
	dn.task = tk
	return true
}

// registerTaskName binds tk's name in ds and resolves the forward
// references waiting on it — after checking that each closing edge
// keeps the graph acyclic. Re-registering a name rebinds it (later
// DepTask references see the newest task).
func (t *Thread) registerTaskName(ds *depState, tk *task) {
	n := t.node
	ds.names[tk.name] = tk.id
	waiters := ds.pending[tk.name]
	if len(waiters) == 0 {
		return
	}
	delete(ds.pending, tk.name)
	dn := n.depGraph[tk.id]
	for _, wid := range waiters {
		if wid == tk.id || n.depReachable(wid, tk.id) {
			t.abortRun(&TaskCycleError{Name: tk.name})
		}
		// The waiter's placeholder predecessor (counted when the forward
		// reference was recorded) becomes the real edge.
		dn.succs = append(dn.succs, wid)
	}
}

// depReachable reports whether `to` is reachable from `from` over
// successor edges of node n's graph.
func (n *node) depReachable(from, to uint64) bool {
	if from == to {
		return true
	}
	seen := map[uint64]bool{}
	var dfs func(id uint64) bool
	dfs = func(id uint64) bool {
		if id == to {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		dn := n.depGraph[id]
		if dn == nil {
			return false
		}
		for _, s := range dn.succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

// taskDone propagates a tracked task's completion through its origin
// node's graph: record the task's outgoing write notices in its
// context, decrement every successor's predecessor count, and release
// the newly ready. A missing entry means a join already cleared the
// context (a late completion message) — nothing can depend on the task
// anymore, so it is ignored.
func (c *Cluster) taskDone(p *sim.Proc, origin int, id uint64, notices []dsm.WriteNotice) {
	n := c.nodes[origin]
	dn := n.depGraph[id]
	if dn == nil {
		return
	}
	delete(n.depGraph, id)
	if dn.ds != nil && len(notices) > 0 {
		dn.ds.done[id] = notices
	}
	for _, sid := range dn.succs {
		c.depSatisfy(p, origin, sid, notices)
	}
}

// depSatisfy retires one predecessor of task id on the origin node,
// hands the task the predecessor's write notices, and releases it once
// no predecessors remain.
func (c *Cluster) depSatisfy(p *sim.Proc, origin int, id uint64, notices []dsm.WriteNotice) {
	n := c.nodes[origin]
	dn := n.depGraph[id]
	if dn == nil {
		return
	}
	dn.preds--
	c.cnt(origin).TaskDepsResolved++
	if dn.task != nil && len(notices) > 0 {
		dn.task.notices = mergeNotices(dn.task.notices, notices)
	}
	if dn.preds == 0 && dn.task != nil {
		tk := dn.task
		dn.task = nil
		c.cnt(origin).TasksReleased++
		c.rec.TaskReleased(dn.heldAt, p.Now(), origin)
		c.dispatchTask(p, origin, tk)
	}
}

// mergeNotices folds b into a with (page, modifier) dedup, keeping the
// result sorted so downstream application and wire contents are
// deterministic regardless of completion interleaving.
func mergeNotices(a, b []dsm.WriteNotice) []dsm.WriteNotice {
	if len(b) == 0 {
		return a
	}
	out := append(a, b...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Page != out[j].Page {
			return out[i].Page < out[j].Page
		}
		return out[i].Modifier < out[j].Modifier
	})
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// resolvePending vacuously satisfies every dangling forward reference
// of ds: called when the context closes and no sibling can register
// names anymore (Taskwait for a thread's roots, parent completion for
// nested tasks). Names resolve in sorted order for determinism.
func (c *Cluster) resolvePending(p *sim.Proc, origin int, ds *depState) {
	if ds == nil || len(ds.pending) == 0 {
		return
	}
	names := make([]string, 0, len(ds.pending))
	for name := range ds.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		waiters := ds.pending[name]
		delete(ds.pending, name)
		for _, wid := range waiters {
			c.depSatisfy(p, origin, wid, nil)
		}
	}
}

// dispatchTask enqueues a ready task for execution: into the local
// deque, or pushed over the fabric to the device node it is pinned to.
func (c *Cluster) dispatchTask(p *sim.Proc, from int, tk *task) {
	if tk.pinned && tk.device != from {
		c.net.Send(p, &netsim.Message{
			From: from, To: tk.device, Kind: KindCtl, Type: ctlTaskPush,
			Bytes: taskDescBytes, Payload: tk,
		})
		return
	}
	c.nodes[from].enqueueTask(tk)
	if !c.lanes {
		c.taskWake()
	}
}

// handleTaskPush runs on the device's communication thread: enqueue the
// pushed (pinned or released-remote) task into the local deque.
func (c *Cluster) handleTaskPush(p *sim.Proc, nodeID int, m *netsim.Message) {
	tk := m.Payload.(*task)
	n := c.nodes[nodeID]
	n.cpu.Compute(p, serveCost)
	n.enqueueTask(tk)
	if !c.lanes {
		c.taskWake()
	}
}

// taskDoneMsg is the completion notification a remotely-executed
// tracked task sends to its origin node, carrying the task's outgoing
// write notices for its successors.
type taskDoneMsg struct {
	ID      uint64
	Notices []dsm.WriteNotice
}

// handleTaskDone runs on the origin's communication thread.
func (c *Cluster) handleTaskDone(p *sim.Proc, nodeID int, m *netsim.Message) {
	done := m.Payload.(taskDoneMsg)
	c.nodes[nodeID].cpu.Compute(p, serveCost)
	c.taskDone(p, nodeID, done.ID, done.Notices)
}

// enqueueTask inserts tk into the node's deque at its priority rank:
// the deque stays ascending in priority from head to tail, so local
// LIFO pops take the highest priority first and thieves (head) take the
// lowest. Equal priorities keep the historical order — newest at the
// tail — and the default priority 0 reduces to a plain append, so
// priority-free programs keep their exact deque behavior.
func (n *node) enqueueTask(tk *task) {
	q := n.taskq
	i := len(q)
	for i > 0 && q[i-1].prio > tk.prio {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = tk
	n.taskq = q
}

// abortRun records err as the run's cancellation cause and spins this
// thread in virtual time until the kernel's cancellation poll unwinds
// the run. core.Run returns an error matching ErrCanceled whose cause
// (errors.As) is err, alongside the partial report.
func (t *Thread) abortRun(err error) {
	t.c.abortErr.CompareAndSwap(nil, &runAbort{err: err})
	for {
		t.Compute(100 * sim.Microsecond)
	}
}
