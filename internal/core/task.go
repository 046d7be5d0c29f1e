package core

import (
	"fmt"
	"sort"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// The distributed tasking runtime: explicit tasks (Thread.Task), the
// team-collective join (Thread.Taskwait), and the task-backed loop
// (Thread.Taskloop), scheduled over per-node deques with cross-node
// work stealing.
//
// The design follows the paper's division of labor. Scheduling state is
// locality-aware: a spawned task lands on its creator's node, local
// threads pop newest-first (LIFO keeps the working set warm), and
// thieves take the oldest task of the most-loaded remote node (FIFO
// steals move the coldest, largest-granularity work). Steal traffic is
// ordinary control-plane messaging (KindCtl over the simulated fabric),
// so it rides the netsim reliability and crash layers like every other
// protocol. Task results follow the hybrid split: the small per-task
// result records return through update-protocol collectives at
// Taskwait, while any large data a task produces stays in shared memory
// under HLRC and propagates through the ordinary barrier flush.
//
// Determinism. Steal outcomes depend on virtual-time races (who asks
// the chunk-server-like victim first), so which node executes a given
// task is timing-dependent — but every quantity that leaves the
// subsystem is not: task identity is a canonical spawn-path id
// (schedule-independent), and Taskwait merges result records across
// nodes sorted by id before reducing, so the returned value is
// bit-identical no matter who stole what. Victim selection itself is
// seeded from Config.Seed, making any single run reproducible.
//
// Two bulletin-board shortcuts lean on the simulation kernel's
// one-runnable-goroutine invariant (see internal/sim): thieves read
// remote deque lengths directly when picking a victim (modeling the
// load gossip real runtimes piggyback on their fabric), and idle
// threads park on a cluster-wide condition instead of polling. The
// task transfer itself always pays the full request/reply fabric cost.

// Control message subtypes for the steal and task-graph protocols.
const (
	ctlStealReq = iota + 20
	ctlStealReply
	ctlTaskDone // remote completion notification to a tracked task's origin
	ctlTaskPush // task delivery to the device node it is pinned to
)

// taskDescBytes models the wire size of a stolen task descriptor
// (function pointer, id, environment summary) — well under the
// SmallThreshold split, which is why steals ride the message-passing
// plane rather than HLRC.
const taskDescBytes = 64

// task is one deferred unit of work.
type task struct {
	id       uint64 // canonical spawn-path id (see taskID)
	fn       func(tc *Thread) float64
	children int // child-spawn counter, drives child id derivation

	// Task-graph state (zero for plain tasks).
	prio     int       // WithPriority rank, deque insertion key
	name     string    // WithTaskName registration
	origin   int       // spawning context's node, owner of the graph entry
	tracked  bool      // completion must be reported to origin
	pinned   bool      // Target task: must execute on device
	device   int       // pinned execution node
	maps     []MapSpec // Target data-mapping clauses
	depState *depState // this task's own children's dependence context

	// notices is the write-notice set inherited over incoming dependence
	// edges: applied (invalidating stale local copies) before the body
	// runs, and folded into the outgoing set at completion so release
	// consistency is transitive along graph paths.
	notices []dsm.WriteNotice
}

// taskResult is one executed task's contribution, merged at Taskwait.
type taskResult struct {
	id  uint64
	val float64
}

// stealReq asks a victim node for its oldest queued task.
type stealReq struct {
	ReqID int
	Thief int
}

// stealReply carries the stolen task, nil on a miss.
type stealReply struct {
	ReqID int
	Task  *task
}

// stealWait is a thief's parked steal request.
type stealWait struct {
	gate *sim.Gate
	task *task
}

// taskID derives a task's canonical id from its parent's id and its
// spawn ordinal under that parent (FNV-1a over both). The id depends
// only on the spawn path — which thread created the root and the chain
// of child ordinals below it — never on which node executed anything,
// so it is identical across steal schedules, fault profiles, and crash
// recoveries.
func taskID(parent uint64, seq int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(parent)
	mix(uint64(seq))
	return h
}

// splitmix64 is the seeded generator behind victim tie-breaking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Task spawns fn as a deferred task. The task is pushed onto the
// calling thread's node deque (locality: children start where their
// parent ran) and executes later on whichever thread — possibly of
// another node, via a steal — reaches a scheduling point: Taskwait,
// Taskloop's implicit join, or any team Barrier.
//
// fn receives the thread that actually executes it; all shared-memory
// access inside the body must go through that context, not the
// spawner's, or DSM accounting charges the wrong node. The returned
// float64 is the task's result record; the sum of all records since the
// last join is what Taskwait returns (return 0 for pure side-effect
// tasks).
// Task-graph clauses attach as TaskOptions: WithDepend orders the task
// after its predecessors (the task is held off the deques until they
// complete), WithTaskName registers it for DepTask references,
// WithPriority ranks it in the deques, and the loop-shaped ForTaskOption
// clauses are accepted for Taskloop symmetry.
func (t *Thread) Task(fn func(tc *Thread) float64, opts ...TaskOption) {
	cfg := taskConfig{}
	for _, o := range opts {
		o.applyTask(&cfg)
	}
	t.spawnTask(t.newTask(fn, &cfg), &cfg)
}

// newTask builds the task object for fn under cfg, deriving its
// canonical spawn-path id from the current context.
func (t *Thread) newTask(fn func(tc *Thread) float64, cfg *taskConfig) *task {
	var id uint64
	if t.curTask != nil {
		t.curTask.children++
		id = taskID(t.curTask.id, t.curTask.children)
	} else {
		t.rootSeq++
		id = taskID(uint64(t.gid)+0x517cc1b727220a95, t.rootSeq)
	}
	return &task{
		id:     id,
		fn:     fn,
		prio:   cfg.priority,
		name:   cfg.taskName,
		origin: t.node.id,
	}
}

// spawnTask is the single spawn path behind Task, Taskloop and Target.
// After the deque-push cost (the one yield), dependence resolution,
// enqueue and the liveness tallies run without yielding, so the whole
// spawn is atomic under the kernel; a push to a remote device node goes
// out last, after the task is already counted live.
func (t *Thread) spawnTask(tk *task, cfg *taskConfig) {
	c, n := t.c, t.node
	t.Compute(localPthreadOp) // deque push under the node's pthread lock
	held := false
	if len(cfg.deps) > 0 || tk.name != "" {
		tk.tracked = true
		held = t.resolveDeps(tk, cfg)
	}
	if !held && (!tk.pinned || tk.device == n.id) {
		n.enqueueTask(tk)
	}
	c.cnt(n.id).TasksSpawned++
	if c.lanes {
		// Lane mode (lanes.go): no cluster-wide live count or wake — the
		// spawn tally feeds the quiescence vote instead. Held and pinned
		// tasks tally on the spawner too: the vote sums over all nodes,
		// so a task spawned here and executed elsewhere still balances.
		n.taskSpawned++
	} else {
		c.tasksLive++
		c.taskWake()
	}
	// MapFrom pages queue for this node's barrier-time refresh batch now,
	// at spawn, in program order — not when the remote completion lands,
	// whose timing depends on the fault schedule.
	for _, ms := range tk.maps {
		if ms.Dir != MapTo {
			c.engine.QueueRefresh(n.id, ms.Pages)
		}
	}
	if !held && tk.pinned && tk.device != n.id {
		c.net.Send(t.p, &netsim.Message{
			From: n.id, To: tk.device, Kind: KindCtl, Type: ctlTaskPush,
			Bytes: taskDescBytes, Payload: tk,
		})
	}
}

// Taskwait is the team-collective join: every team thread must call it
// (SPMD, like any directive). Arriving threads execute queued tasks —
// their own node's newest-first, then steals — until no task is live
// anywhere; the per-node result records are then merged across nodes
// with one collective (sorted by task id, so the reduction order is
// canonical) and the sum of every task's result since the previous join
// is returned, identical on all threads. A trailing team barrier
// flushes task-made shared-memory writes, completing the hybrid split:
// small results returned by collective, large data through HLRC.
func (t *Thread) Taskwait() float64 {
	rec, t0 := t.directiveStart()
	// This thread's root context is closing: no sibling can register task
	// names anymore, so dangling DepTask references resolve vacuously and
	// the tasks they held become runnable.
	t.c.resolvePending(t.p, t.node.id, t.depState)
	if t.c.lanes {
		t.drainTasksLane()
	} else {
		// Register this thread's arrival before draining: the join may
		// only terminate once every team thread has arrived (and thus
		// finished spawning for this region). The lane path needs no
		// equivalent — its quiescence vote is itself team-collective.
		t.joinEpoch++
		t.c.taskArrived++
		t.c.taskWake()
		t.drainTasks(t.joinEpoch * uint64(t.c.TotalThreads()))
	}
	out := t.mergeTaskResults()
	t.Barrier()
	t.depState = nil // next task region starts a fresh dependence context
	rec.Directive(t0, t.p.Now(), t.node.id, "taskwait", "taskwait")
	return out
}

// Taskloop partitions [lo, hi) into chunks of WithGrainsize iterations
// (default: one thread's static share split in taskGrainDiv) and spawns
// each chunk as a task on its statically-owning thread's node, so the
// initial placement matches the static schedule's locality and stealing
// only moves work when load imbalance develops. body receives the
// executing thread's context plus the iteration index; per-iteration
// virtual cost attaches with WithIterCost. The implicit Taskwait
// returns the sum of the body's results; Nowait skips the join (and
// returns 0), leaving the chunks for a later scheduling point.
//
// Task-graph clauses apply to every chunk: WithDepend makes each chunk
// declare the same dependences (an Out handle therefore serializes one
// thread's chunks; In handles keep them parallel behind the writer),
// and WithPriority ranks them all. WithTaskName is ignored — chunks are
// anonymous, a shared name would just rebind to the newest chunk.
func (t *Thread) Taskloop(lo, hi int, body func(tc *Thread, i int) float64, opts ...TaskOption) float64 {
	cfg := taskConfig{}
	for _, o := range opts {
		o.applyTask(&cfg)
	}
	cfg.taskName = ""
	myLo, myHi := t.StaticRange(lo, hi)
	grain := cfg.chunk
	if grain < 1 {
		grain = (myHi - myLo) / taskGrainDiv
		if grain < 1 {
			grain = 1
		}
	}
	perIter := cfg.perIter
	for clo := myLo; clo < myHi; clo += grain {
		chi := clo + grain
		if chi > myHi {
			chi = myHi
		}
		clo, chi := clo, chi
		fn := func(tc *Thread) float64 {
			var sum float64
			for i := clo; i < chi; i++ {
				sum += body(tc, i)
			}
			if perIter > 0 {
				tc.Compute(perIter * sim.Duration(chi-clo))
			}
			return sum
		}
		t.spawnTask(t.newTask(fn, &cfg), &cfg)
	}
	if cfg.nowait {
		return 0
	}
	return t.Taskwait()
}

// taskGrainDiv splits one thread's static share into this many default
// Taskloop chunks — enough slack for stealing to rebalance, few enough
// that per-task overhead stays small.
const taskGrainDiv = 4

// drainTasks executes queued tasks until none is live cluster-wide and,
// when arriveTarget is nonzero, every team thread has arrived at the
// join (c.taskArrived has reached the target): local LIFO pops first,
// then cross-node steals, then parking on the cluster task condition
// until a push, completion, or arrival changes the picture.
//
// The arrival requirement is what makes the collective join sound: the
// live count can be transiently zero while a sibling thread — still on
// its way to Taskwait — has tasks left to spawn, possibly pinned to
// THIS node, which no other node may execute. Barrier's scheduling-
// point drain passes target 0 (plain live-count loop), preserving its
// best-effort semantics and task-free timing.
func (t *Thread) drainTasks(arriveTarget uint64) {
	c := t.c
	for c.tasksLive > 0 || c.taskArrived < arriveTarget {
		if tk := t.popLocalTask(); tk != nil {
			t.runTask(tk)
			continue
		}
		if tk := t.stealTask(); tk != nil {
			t.runTask(tk)
			continue
		}
		c.taskMu.Lock(t.p)
		if (c.tasksLive > 0 || c.taskArrived < arriveTarget) && !c.anyQueuedTaskFor(t.node.id) {
			c.taskCond.Wait(t.p)
		}
		c.taskMu.Unlock(t.p)
	}
}

// popLocalTask takes the newest task of this thread's node (LIFO: the
// most recently spawned work has the warmest pages).
func (t *Thread) popLocalTask() *task {
	n := t.node
	if len(n.taskq) == 0 {
		return nil
	}
	t.Compute(localPthreadOp)
	// The pop cost is a preemption point; a sibling may have drained the
	// deque meanwhile.
	if len(n.taskq) == 0 {
		return nil
	}
	tk := n.taskq[len(n.taskq)-1]
	n.taskq = n.taskq[:len(n.taskq)-1]
	return tk
}

// stealTask asks the most-loaded remote node for its oldest task via a
// control-plane round trip. Returns nil when no remote node has queued
// work or when the victim's deque emptied before the request arrived (a
// miss).
func (t *Thread) stealTask() *task {
	c, n, p := t.c, t.node, t.p
	victim := c.chooseVictim(n.id)
	if victim < 0 {
		return nil
	}
	start := c.s.Now()
	cc := c.cnt(n.id)
	cc.StealRequests++
	n.stealSeq++
	reqID := n.stealSeq
	w := &stealWait{gate: sim.NewGate(c.s)}
	n.stealWaits[reqID] = w
	c.net.Send(p, &netsim.Message{
		From: n.id, To: victim, Kind: KindCtl, Type: ctlStealReq,
		Bytes: 24, Payload: stealReq{ReqID: reqID, Thief: n.id},
	})
	w.gate.Wait(p)
	hit := w.task != nil
	if hit {
		cc.StealHits++
		cc.TasksStolen++
	} else {
		cc.StealMisses++
	}
	c.rec.StealDone(start, c.s.Now(), n.id, victim, hit)
	return w.task
}

// chooseVictim picks the remote node with the most stealable (non-
// pinned) queued tasks; ties break by a rotation drawn from the
// Config.Seed-derived steal sequence, so victim selection is
// deterministic for a given seed yet unbiased across nodes. Pinned
// tasks never leave their device node, so counting them would send
// thieves on guaranteed-miss round trips. Returns -1 when no remote
// node has stealable work.
func (c *Cluster) chooseVictim(thief int) int {
	nodes := len(c.nodes)
	if nodes < 2 {
		return -1
	}
	rot := int(c.stealRot % uint64(nodes))
	c.stealRot = splitmix64(c.stealRot)
	best, bestLen := -1, 0
	for k := 0; k < nodes; k++ {
		id := (rot + k) % nodes
		if id == thief {
			continue
		}
		l := 0
		for _, tk := range c.nodes[id].taskq {
			if !tk.pinned {
				l++
			}
		}
		if l > bestLen {
			best, bestLen = id, l
		}
	}
	return best
}

// anyQueuedTaskFor reports whether node nodeID's threads have actionable
// queued work: any task on their own deque (poppable, pinned or not),
// or a stealable (non-pinned) task on any other node. A task pinned to
// a different node is not actionable here — parking on it would just
// spin the steal path on guaranteed misses.
func (c *Cluster) anyQueuedTaskFor(nodeID int) bool {
	for id, n := range c.nodes {
		if id == nodeID {
			if len(n.taskq) > 0 {
				return true
			}
			continue
		}
		for _, tk := range n.taskq {
			if !tk.pinned {
				return true
			}
		}
	}
	return false
}

// taskWake wakes every thread parked on the task condition so it can
// re-examine the deques and the live count.
func (c *Cluster) taskWake() {
	c.taskCond.Broadcast()
}

// runTask executes one task on t, records its result on t's node,
// retires it from the live count, and — for tracked tasks — reports the
// completion to the origin node so the dependence resolver can release
// successors.
func (t *Thread) runTask(tk *task) {
	c := t.c
	if len(tk.maps) > 0 {
		t.prefetchMaps(tk)
	}
	if len(tk.notices) > 0 {
		// Acquire: the write notices inherited over tk's incoming edges
		// invalidate this node's stale copies before the body reads them.
		c.engine.ApplyNotices(t.node.id, tk.notices)
	}
	prev := t.curTask
	t.curTask = tk
	v := tk.fn(t)
	t.curTask = prev
	// tk's own children's context closes with tk: dangling DepTask
	// references among them resolve vacuously now.
	if tk.depState != nil {
		c.resolvePending(t.p, t.node.id, tk.depState)
		tk.depState = nil
	}
	var outgoing []dsm.WriteNotice
	if tk.tracked {
		// Release: flush this node's modifications home before any
		// successor can be released, and pass the notices down the edges
		// (inherited plus this interval's own, so visibility is
		// transitive along graph paths).
		outgoing = mergeNotices(tk.notices, c.engine.TaskFlush(t.p, t.node.id))
	}
	t.node.taskResults = append(t.node.taskResults, taskResult{id: tk.id, val: v})
	c.cnt(t.node.id).TasksExecuted++
	if c.lanes {
		t.node.taskExecuted++
	} else {
		c.tasksLive--
		c.taskWake()
	}
	if tk.tracked {
		if tk.origin == t.node.id {
			c.taskDone(t.p, tk.origin, tk.id, outgoing)
		} else {
			c.net.Send(t.p, &netsim.Message{
				From: t.node.id, To: tk.origin, Kind: KindCtl, Type: ctlTaskDone,
				Bytes: 24 + 8*len(outgoing), Payload: taskDoneMsg{ID: tk.id, Notices: outgoing},
			})
		}
	}
}

// handleStealReq runs on the victim's communication thread: pop the
// oldest stealable queued task (FIFO from the thief's perspective — the
// coldest, largest-granularity, lowest-priority work) and reply,
// possibly with a miss. Tasks pinned to this node by Target never leave.
func (c *Cluster) handleStealReq(p *sim.Proc, nodeID int, m *netsim.Message) {
	req := m.Payload.(stealReq)
	n := c.nodes[nodeID]
	n.cpu.Compute(p, serveCost)
	var tk *task
	bytes := 16
	for i, q := range n.taskq {
		if q.pinned {
			continue
		}
		tk = q
		copy(n.taskq[i:], n.taskq[i+1:])
		n.taskq[len(n.taskq)-1] = nil
		n.taskq = n.taskq[:len(n.taskq)-1]
		bytes = taskDescBytes
		break
	}
	c.net.Send(p, &netsim.Message{
		From: nodeID, To: req.Thief, Kind: KindCtl, Type: ctlStealReply,
		Bytes: bytes, Payload: stealReply{ReqID: req.ReqID, Task: tk},
	})
}

// handleStealReply wakes the thief's parked steal request.
func (c *Cluster) handleStealReply(nodeID int, m *netsim.Message) {
	rep := m.Payload.(stealReply)
	n := c.nodes[nodeID]
	w := n.stealWaits[rep.ReqID]
	if w == nil {
		panic(fmt.Sprintf("core: steal reply for unknown request %d", rep.ReqID))
	}
	delete(n.stealWaits, rep.ReqID)
	w.task = rep.Task
	w.gate.Open()
}

// mergeTaskResults is Taskwait's combine: node-local rendezvous (the
// last arriving thread represents the node), one Allreduce whose
// combine merge-sorts the per-node record lists by task id — unique ids
// make the merge commutative and associative, as the collective
// requires — and a canonical-order sum shared back to the local
// threads. Single-node runs skip the collective.
func (t *Thread) mergeTaskResults() float64 {
	c, n, p := t.c, t.node, t.p
	rv := n.rendezvousFor("taskwait")
	rv.mu.Lock(p)
	myRound := rv.round
	rv.count++
	if rv.count < c.cfg.ThreadsPerNode {
		for rv.round == myRound {
			rv.cond.Wait(p)
		}
		res := rv.result
		rv.mu.Unlock(p)
		return res
	}
	rv.count = 0
	rv.mu.Unlock(p)

	local := append([]taskResult(nil), n.taskResults...)
	n.taskResults = n.taskResults[:0]
	sort.Slice(local, func(i, j int) bool { return local[i].id < local[j].id })
	merged := local
	if c.cfg.Nodes > 1 {
		res := c.world.Rank(n.id).Allreduce(p, local, 16*len(local)+16, mergeResultLists)
		merged = res.([]taskResult)
	}
	var sum float64
	for _, r := range merged {
		sum += r.val
	}

	rv.mu.Lock(p)
	rv.result = sum
	rv.round++
	rv.cond.Broadcast()
	rv.mu.Unlock(p)
	return sum
}

// mergeResultLists merges two id-sorted record lists, preserving order.
// Ids are unique across the team (spawn-path hashes), so the merge is
// commutative and associative — the contract Allreduce's combine
// requires.
func mergeResultLists(a, b any) any {
	as, bs := a.([]taskResult), b.([]taskResult)
	out := make([]taskResult, 0, len(as)+len(bs))
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		if as[i].id <= bs[j].id {
			out = append(out, as[i])
			i++
		} else {
			out = append(out, bs[j])
			j++
		}
	}
	out = append(out, as[i:]...)
	out = append(out, bs[j:]...)
	return out
}
