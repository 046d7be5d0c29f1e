package core

import (
	"fmt"

	"parade/internal/netsim"
	"parade/internal/sim"
)

// Thread is one OpenMP thread of the team: the execution context the
// translated program (or a hand-written application) runs against.
// Global thread 0 on node 0 is the master; it executes serial sections
// and forks parallel regions.
type Thread struct {
	c    *Cluster
	p    *sim.Proc
	gid  int
	node *node

	// Per-thread use counts of single/critical sites, used to agree on
	// rounds without global coordination.
	siteRound map[string]int

	// Tasking runtime (task.go): the task this thread is currently
	// executing (nil outside task bodies — spawns from here are roots) and
	// the thread's root-spawn ordinal, which together derive canonical
	// task ids.
	curTask *task
	rootSeq int

	// Dependence context of this thread's root tasks (depend.go):
	// lazily created at the first depend clause, reset at Taskwait.
	depState *depState

	// Count of Taskwait joins this thread has entered (task.go). With
	// the cluster's cumulative arrival tally it forms the join's
	// termination target: a thread may leave the drain loop only after
	// every team thread has arrived at the same join, so a transiently
	// zero live count never ends the join while a sibling still has
	// tasks to spawn.
	joinEpoch uint64
}

// GID returns the global thread id (0 .. TotalThreads-1).
func (t *Thread) GID() int { return t.gid }

// LID returns the thread id within its node.
func (t *Thread) LID() int { return t.gid % t.c.cfg.ThreadsPerNode }

// NodeID returns the node this thread runs on.
func (t *Thread) NodeID() int { return t.node.id }

// NumThreads returns the team size.
func (t *Thread) NumThreads() int { return t.c.TotalThreads() }

// Cluster returns the owning cluster.
func (t *Thread) Cluster() *Cluster { return t.c }

// Now returns the current virtual time (of this thread's lane, in lane
// mode).
func (t *Thread) Now() sim.Time { return t.p.Now() }

// Compute charges d of processor time to this thread (the mechanism by
// which real computation acquires a virtual-time cost). Under a
// heterogeneous cluster profile (Config.Hetero) the charge is scaled by
// the node's speed factor — a slow node takes proportionally longer for
// the same work, which is what makes offload placement observable.
func (t *Thread) Compute(d sim.Duration) {
	t.node.cpu.Compute(t.p, t.c.hetero.Scale(t.node.id, d))
}

// workerLoop is the body of every non-master team thread: wait for a
// region fork, execute it, join at the implicit end-of-region barrier.
func (t *Thread) workerLoop(p *sim.Proc) {
	n := t.node
	seen := 0
	for {
		n.workMu.Lock(p)
		for n.workSeq == seen {
			n.workCond.Wait(p)
		}
		seen = n.workSeq
		n.workMu.Unlock(p)
		if t.c.stopping {
			return
		}
		t.c.region(t)
		t.Barrier() // implicit barrier at the end of a parallel region
		if t.c.lanes {
			t.c.rec.RegionEndOn(n.id) // idempotent across the node's threads
		}
	}
}

// Parallel forks a parallel region: every team thread executes fn, and
// an implicit barrier joins them (the OpenMP fork-join model, §4.1).
// Remote nodes are started with a control message handled by their
// communication thread, which signals the local team threads — the
// fork cost therefore scales with the cluster size and the fabric.
func (t *Thread) Parallel(fn func(tc *Thread)) {
	if t.gid != 0 {
		panic("core: Parallel from a non-master thread (nested parallelism is not supported, per the paper)")
	}
	c := t.c
	c.region = fn
	c.regionSeq++
	seq := c.regionSeq
	var t0 sim.Time
	if c.rec != nil {
		t0 = t.p.Now()
		c.rec.RegionBegin(t0, seq)
	}
	// Make the master's serial-section writes visible before the fork:
	// flush to homes and piggyback the write notices on the region-start
	// messages (§5.2.2's piggybacking, applied to the fork).
	notices := c.engine.FlushForFork(t.p, 0)
	for i := 1; i < c.cfg.Nodes; i++ {
		c.net.Send(t.p, &netsim.Message{
			From: 0, To: i, Kind: KindCtl, Type: ctlStartRegion,
			Bytes: 16 + 8*len(notices), Payload: notices,
		})
	}
	c.startRegionLocal(t.p, 0)
	fn(t)
	t.Barrier()
	if c.lanes {
		c.rec.RegionEndOn(0)
	}
	if c.rec != nil {
		c.rec.RegionEnd(t0, t.p.Now(), seq)
	}
}

// Barrier is the team-wide barrier: threads synchronize through a
// node-local pthread barrier first, and the last arrival of each node
// represents it in the global SDSM barrier (flush, write notices, home
// migration, invalidations).
func (t *Thread) Barrier() {
	c, n, p := t.c, t.node, t.p
	if c.lanes {
		// Lane-mode barriers drain the node's own deque. Every node's
		// threads do the same before the node's last arrival enters the
		// global SDSM barrier, so all pre-barrier tasks complete
		// cluster-wide without any cross-lane queue inspection (steals
		// happen only inside Taskwait's vote loop).
		if len(n.taskq) > 0 {
			t.drainLocalTasks()
		}
	} else if c.tasksLive > 0 {
		// Barriers are task scheduling points: all outstanding tasks
		// complete before any thread passes (OpenMP §task scheduling).
		// One integer compare when no tasks exist, so task-free programs
		// keep their exact timing. Target 0: a barrier is not a task
		// join, so the drain is the plain live-count loop.
		t.drainTasks(0)
	}
	t.Compute(localPthreadOp)
	n.barMu.Lock(p)
	gen := n.barGen
	n.barCount++
	if n.barCount == c.cfg.ThreadsPerNode {
		n.barCount = 0
		n.barMu.Unlock(p)
		c.engine.Barrier(p, n.id)
		n.barMu.Lock(p)
		n.barGen++
		n.barCond.Broadcast()
		n.barMu.Unlock(p)
		return
	}
	for gen == n.barGen {
		n.barCond.Wait(p)
	}
	n.barMu.Unlock(p)
}

// StaticRange returns this thread's slice [lo, hi) of the iteration
// space under the static schedule: contiguous blocks in gid order, so
// threads of one node work on adjacent data (§4.3).
func (t *Thread) StaticRange(lo, hi int) (int, int) {
	total := hi - lo
	if total <= 0 {
		return lo, lo
	}
	nt := t.NumThreads()
	myLo := lo + total*t.gid/nt
	myHi := lo + total*(t.gid+1)/nt
	return myLo, myHi
}

// For executes a work-sharing loop (the for directive): body runs for
// every i in [lo, hi), distributed across the team per the schedule
// option, followed by the directive's implicit barrier unless Nowait is
// given. With no options it is the paper's static schedule:
//
//	tc.For(0, n, body)                                         // static
//	tc.For(0, n, body, core.WithIterCost(50*sim.Nanosecond))   // costed
//	tc.For(0, n, body, core.WithSchedule(core.Dynamic, 8))     // chunked
//	tc.For(0, n, body, core.WithSchedule(core.Guided, 4), core.Nowait())
func (t *Thread) For(lo, hi int, body func(i int), opts ...ForOption) {
	cfg := forConfig{}
	for _, o := range opts {
		o.applyFor(&cfg)
	}
	switch cfg.kind {
	case Static:
		t.forStatic(lo, hi, cfg.perIter, body)
	case Dynamic, Guided:
		t.forServed(&cfg, lo, hi, body)
	default:
		panic(fmt.Sprintf("core: unknown schedule kind %d", cfg.kind))
	}
	if !cfg.nowait {
		t.Barrier()
	}
}

// computeBatch is the target size of one virtual-time charge inside a
// costed loop: small enough that the communication thread can preempt a
// computing thread at a realistic OS granularity.
const computeBatch = 200 * sim.Microsecond

// ForCost executes a static work-sharing loop with a per-iteration
// compute cost, followed by the implicit barrier: For with WithIterCost,
// without the option allocation, for the app kernels' inner loops.
func (t *Thread) ForCost(lo, hi int, perIter sim.Duration, body func(i int)) {
	t.forStatic(lo, hi, perIter, body)
	t.Barrier()
}

// ForCostNowait executes a costed static work-sharing loop without the
// trailing barrier (For with WithIterCost and Nowait).
func (t *Thread) ForCostNowait(lo, hi int, perIter sim.Duration, body func(i int)) {
	t.forStatic(lo, hi, perIter, body)
}

// forStatic runs this thread's static slice of [lo, hi). A positive
// perIter charges the body's virtual compute cost in batches, so loops
// contend with the communication thread for CPU time exactly as the
// paper's three thread/CPU configurations describe.
func (t *Thread) forStatic(lo, hi int, perIter sim.Duration, body func(i int)) {
	myLo, myHi := t.StaticRange(lo, hi)
	if perIter <= 0 {
		for i := myLo; i < myHi; i++ {
			body(i)
		}
		return
	}
	batch := int(computeBatch / perIter)
	if batch < 1 {
		batch = 1
	}
	pending := 0
	for i := myLo; i < myHi; i++ {
		body(i)
		pending++
		if pending == batch {
			t.Compute(perIter * sim.Duration(pending))
			pending = 0
		}
	}
	if pending > 0 {
		t.Compute(perIter * sim.Duration(pending))
	}
}

// Master runs fn on the master thread only (no implied synchronization).
func (t *Thread) Master(fn func()) {
	if t.gid == 0 {
		fn()
	}
}

// round returns this thread's use count of site name, advancing it.
// Threads agree on rounds because every team thread reaches each site
// the same number of times (SPMD execution).
func (t *Thread) round(name string) int {
	if t.siteRound == nil {
		t.siteRound = map[string]int{}
	}
	r := t.siteRound[name]
	t.siteRound[name] = r + 1
	return r
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread%d@node%d", t.gid, t.node.id)
}
