package core

import (
	"fmt"
	"hash/fnv"

	"parade/internal/netsim"
	"parade/internal/obs"
	"parade/internal/sim"
	"parade/internal/stats"
)

// Event-lane wiring (paper-scale parallel simulation). Config.Lanes > 0
// runs the simulation kernel in lane mode: one event lane per simulated
// node, up to Lanes lanes executing concurrently on host goroutines
// under conservative lookahead (internal/sim). The runtime's job here
// is threefold:
//
//   - bind every per-node activity (communication thread, team threads)
//     to its node's lane, so all node state stays lane-confined;
//   - replicate the lazily-populated directive-site registries per node
//     (lock ids, single flags, reduction slot arrays) — SPMD execution
//     encounters sites in the same order on every node, so the replicas
//     assign identical ids and shared-memory addresses without any
//     cross-lane coordination;
//   - replace the two bulletin-board shortcuts that read remote state
//     (the tasking runtime's global live count and load gossip) with a
//     collective quiescence vote and blind seeded victim rotation.
//
// Everything else — protocol messages, collectives, steal traffic —
// already flows through the simulated fabric, which the lane kernel
// routes between lanes with the canonical window merge. Lane mode is
// therefore deterministic for any worker count: Lanes=1 and Lanes=N
// execute the identical event schedule.

// laneWindowChurn, when set before Run (tests only), makes the lane
// workers yield the host scheduler at every window boundary, stressing
// the claim that results are independent of goroutine interleaving.
var laneWindowChurn bool

// LaneConfigError is the typed error returned for an invalid lane
// configuration (errors.As-matchable).
type LaneConfigError struct {
	Lanes  int
	Reason string
}

func (e *LaneConfigError) Error() string {
	return fmt.Sprintf("core: invalid lane configuration (Lanes = %d): %s", e.Lanes, e.Reason)
}

// laneLookahead derives the conservative lookahead bound from the
// fabric: no cross-node event can take effect sooner than one wire
// latency after its cause (every inter-node delay — data frame, ack,
// fetch reply — includes at least Fabric.Latency; straggler slowdown
// only stretches delays). Windows of this width are therefore causally
// independent across lanes.
func laneLookahead(f netsim.Fabric) sim.Duration { return f.Latency }

// cnt returns node's counter row.
func (c *Cluster) cnt(node int) *stats.Counters { return c.stats.At(node) }

// Registry replicas. Directive sites resolve names to ids/addresses
// lazily; in lane mode each node resolves against its own replica so
// no cross-lane map or allocator access happens. For the collective
// sites (Single, reductions) every team must reach the same site
// sequence or the program would already deadlock, so first-use order
// is identical on every node and the replicas stay in lockstep. Lock
// sites carry no such guarantee and get name-derived ids instead (see
// lockID).

// lockID resolves a directive site name to its global SDSM lock id
// from t's node. Unlike the collective directives below, Critical is
// NOT collective — threads on different nodes may reach lock sites in
// any order (lockmix rotates them on purpose) — so first-use-order ids
// would let replicas disagree and nodes would lock different locks.
// Lane mode therefore derives the id from the site name itself: every
// replica computes the same id with no coordination, and a hash
// collision merely merges two critical sections (coarser exclusion,
// still correct and still deterministic).
func (t *Thread) lockID(name string) int {
	if !t.c.lanes {
		return t.c.lockID(name)
	}
	n := t.node
	if id, ok := n.lockIDs[name]; ok {
		return id
	}
	id := lockNameID(name)
	n.lockIDs[name] = id
	return id
}

// lockNameID hashes a directive-site name to a stable non-negative lock
// id (FNV-1a, sign bit cleared).
func lockNameID(name string) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() & (1<<63 - 1))
}

// singleFlag resolves the SDSM address of a single site's round flag
// from t's node, allocating it (in replica lockstep) on first use.
func (t *Thread) singleFlag(name string) int {
	if !t.c.lanes {
		return t.c.singleFlag(name)
	}
	n := t.node
	if addr, ok := n.singles[name]; ok {
		return addr
	}
	addr := n.alloc.Alloc(8, 8)
	n.singles[name] = addr
	return addr
}

// reduceSlotsN resolves the named shared slot array with at least
// `count` elements from t's node.
func (t *Thread) reduceSlotsN(name string, count int) F64Array {
	if !t.c.lanes {
		return t.c.reduceSlotsN(name, count)
	}
	n := t.node
	if a, ok := n.slotArrays[name]; ok {
		if a.Len() < count {
			panic("core: reduction slot array reused with a larger width")
		}
		return a
	}
	a := F64Array{c: t.c, base: n.alloc.AllocPage(8 * count), n: count}
	n.slotArrays[name] = a
	return a
}

// reduceSlots resolves the named per-team-thread slot array from t's
// node.
func (t *Thread) reduceSlots(name string) F64Array {
	return t.reduceSlotsN(name, t.c.TotalThreads())
}

// allocShared reserves shared memory from serial context (the master's
// sections between regions, or setup before the first region). In lane
// mode the replica allocators advance in lockstep so later SPMD-order
// lazy allocations keep agreeing on addresses.
func (c *Cluster) allocShared(bytes, align int, page bool) int {
	var addr int
	if page {
		addr = c.engine.Alloc.AllocPage(bytes)
	} else {
		addr = c.engine.Alloc.Alloc(bytes, align)
	}
	if c.lanes {
		for _, n := range c.nodes {
			n.alloc.AdvanceTo(c.engine.Alloc.Used())
		}
	}
	return addr
}

// Lane-mode tasking. The legacy scheduler keeps a cluster-wide live
// count, a global idle condition, and remote-deque load gossip — all
// cross-lane reads. The lane scheduler replaces them with per-node
// spawn/execute tallies and a collective quiescence vote: a task is
// live iff the cluster-wide spawn total exceeds the execute total, and
// both are sums of lane-confined counters, so one Allreduce decides
// termination identically on every node. Victim selection becomes a
// blind per-node seeded rotation (no remote reads); a steal against an
// idle victim is simply a miss, and any task nobody steals is executed
// by its spawn node's own threads on the next drain pass. Which node
// runs a task remains timing-dependent, but — exactly as in legacy
// mode — every value that leaves the subsystem is canonicalized by id,
// and in lane mode the timing itself is identical for every worker
// count.

// drainTasksLane executes tasks until the quiescence vote passes. It is
// team-collective: every team thread participates in each vote round.
func (t *Thread) drainTasksLane() {
	for {
		t.drainLocalTasks()
		if t.taskQuiesced() {
			return
		}
		if tk := t.stealTaskLane(); tk != nil {
			t.runTask(tk)
		}
	}
}

// drainLocalTasks pops and runs the node's queued tasks until the deque
// is empty.
func (t *Thread) drainLocalTasks() {
	for {
		tk := t.popLocalTask()
		if tk == nil {
			return
		}
		t.runTask(tk)
	}
}

// taskQuiesced is one round of the termination vote: the node's threads
// rendezvous, the last arrival joins an Allreduce summing every node's
// (spawned, executed) tallies, and the shared verdict — equal sums mean
// no task is queued or running anywhere — is handed back to the local
// threads. Quiescence is stable (nothing can spawn work once nothing
// runs), so a true verdict is safe even though the tallies are read at
// slightly different virtual times per node.
func (t *Thread) taskQuiesced() bool {
	c, n, p := t.c, t.node, t.p
	rv := n.rendezvousFor("taskvote")
	rv.mu.Lock(p)
	myRound := rv.round
	rv.count++
	if rv.count < c.cfg.ThreadsPerNode {
		for rv.round == myRound {
			rv.cond.Wait(p)
		}
		res := rv.result
		rv.mu.Unlock(p)
		return res != 0
	}
	rv.count = 0
	rv.mu.Unlock(p)

	spawned, executed := n.taskSpawned, n.taskExecuted
	if c.cfg.Nodes > 1 {
		res := c.world.Rank(n.id).Allreduce(p, [2]int64{spawned, executed}, 16, sumPair)
		pair := res.([2]int64)
		spawned, executed = pair[0], pair[1]
	}
	verdict := 0.0
	if spawned == executed {
		verdict = 1
	}

	rv.mu.Lock(p)
	rv.result = verdict
	rv.round++
	rv.cond.Broadcast()
	rv.mu.Unlock(p)
	return verdict != 0
}

// sumPair element-wise adds two [2]int64 tallies (commutative and
// associative, as Allreduce requires).
func sumPair(a, b any) any {
	as, bs := a.([2]int64), b.([2]int64)
	return [2]int64{as[0] + bs[0], as[1] + bs[1]}
}

// stealTaskLane asks one blindly-rotated victim for its oldest task.
// The rotation is seeded per node, so victim order is deterministic and
// lane-confined; a miss just returns nil and the caller revotes.
func (t *Thread) stealTaskLane() *task {
	c, n, p := t.c, t.node, t.p
	nodes := c.cfg.Nodes
	if nodes < 2 {
		return nil
	}
	n.stealRot = splitmix64(n.stealRot)
	victim := int(n.stealRot % uint64(nodes-1))
	if victim >= n.id {
		victim++ // skip self, keeping the distribution uniform
	}
	start := p.Now()
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
	c.rec.StealDone(start, p.Now(), n.id, victim, hit)
	return w.task
}

// laneReport converts the simulator's post-run lane report into the
// metrics registry's types and attaches it.
func laneReport(s *sim.Simulator, rec *obs.Recorder) {
	ls := s.LaneStats()
	if ls == nil || rec == nil {
		return
	}
	out := make([]obs.LaneStat, len(ls))
	for i, l := range ls {
		out[i] = obs.LaneStat{
			Lane: l.Lane, Windows: l.Windows, Events: l.Events,
			BusyNs: l.BusyNs, StallNs: l.StallNs,
		}
	}
	sh := s.LaneSyncHist()
	var h obs.Histogram
	h.Count, h.Sum, h.Min, h.Max = sh.Count, sh.Sum, sh.Min, sh.Max
	h.Buckets = sh.Buckets
	rec.Metrics().SetLaneReport(out, s.LaneWindows(), h)
}
