package core

import (
	"fmt"

	"parade/internal/obs"
	"parade/internal/sim"
)

// Synchronization directives (§4.2). Each has two lowerings:
//
//   - the hybrid (ParADE) path: intra-node exclusion with a pthread
//     mutex plus one inter-node collective that both propagates the
//     small data (update protocol) and synchronizes the processes —
//     no SDSM lock, no twin/diff, no page transfer;
//   - the conventional SDSM path: a distributed lock whose grant carries
//     write notices, page invalidation, and a page fetch on the next
//     access — the expensive sequence the paper's Fig. 2/3 left side
//     shows and the microbenchmarks of Figs. 6/7 measure.
//
// Mode selects the default; directives fall back to the SDSM path when
// the guarded data exceeds the small-structure threshold or is not
// statically analyzable (no scalars supplied).

// rendezvous coordinates one combine round of a node's local threads.
type rendezvous struct {
	mu      *sim.Mutex
	cond    *sim.Cond
	count   int
	round   int
	acc     float64
	result  float64
	accV    []float64
	resultV []float64
}

func (n *node) rendezvousFor(name string) *rendezvous {
	rv := n.rendezvous[name]
	if rv == nil {
		mu := sim.NewMutex(n.s)
		rv = &rendezvous{mu: mu, cond: sim.NewCond(mu)}
		n.rendezvous[name] = rv
	}
	return rv
}

// lockID maps a directive site name to a global SDSM lock, assigned in
// first-use order (deterministic under the simulation kernel).
func (c *Cluster) lockID(name string) int {
	if id, ok := c.lockIDs[name]; ok {
		return id
	}
	if c.lockIDs == nil {
		c.lockIDs = map[string]int{}
	}
	id := len(c.lockIDs)
	c.lockIDs[name] = id
	return id
}

// useCollective is the hybrid message-passing/SDSM cutoff (§5.2.1): a
// directive guarding size bytes takes the message-passing collective
// path when the runtime is in Hybrid mode and the data fits under the
// small-structure threshold. The threshold is the paper's lexical 256
// bytes by default; the adaptive policy derives it from the fabric,
// cost model, and node count instead (AutoThreshold, applied in
// WithDefaults), so the cutoff tracks the actual crossover point.
func (t *Thread) useCollective(size int) bool {
	return t.c.cfg.Mode == Hybrid && size <= t.c.cfg.SmallThreshold
}

// Critical executes fn under the named critical directive. scalars lists
// the small shared variables the block modifies; when the block is
// statically analyzable (scalars != nil, commutative updates) and their
// combined size is within the threshold, the hybrid path is used.
//
// Hybrid-path semantics follow the update protocol: fn's modifications
// to the scalars must be commutative accumulations (the lexically
// analyzable blocks of §4.2); each node applies its local updates under
// the pthread mutex, and one collective per team round merges the
// per-node deltas and agrees on the new values everywhere.
func (t *Thread) Critical(name string, scalars []*Scalar, fn func()) {
	rec, t0 := t.directiveStart()
	if scalars != nil && t.useCollective(8*len(scalars)) {
		t.criticalHybrid(name, scalars, fn)
	} else {
		t.criticalSDSM(name, fn)
	}
	rec.Directive(t0, t.p.Now(), t.node.id, "critical", name)
}

// directiveStart counts the directive on this thread's node and marks
// the start of its span; it returns the recorder (nil when observability
// is disabled) and the start time. Every obs.Recorder method is a no-op
// on a nil receiver, so the matching rec.Directive call needs no guard.
func (t *Thread) directiveStart() (*obs.Recorder, sim.Time) {
	t.c.cnt(t.node.id).Directives++
	if t.c.rec == nil {
		return nil, 0
	}
	return t.c.rec, t.p.Now()
}

// criticalHybrid is the ParADE lowering of Fig. 2 (right).
func (t *Thread) criticalHybrid(name string, scalars []*Scalar, fn func()) {
	n, p := t.node, t.p
	t.Compute(localPthreadOp)
	mu := n.mutex("crit:" + name)
	mu.Lock(p)
	fn()
	mu.Unlock(p)
	t.c.cnt(n.id).HybridCriticals++
	t.combineRound("crit:"+name, scalars)
}

// combineRound merges the per-node deltas of the scalars across nodes
// once every local thread has contributed (one collective per team
// round, performed by the node's last-arriving thread).
func (t *Thread) combineRound(name string, scalars []*Scalar) {
	c, n, p := t.c, t.node, t.p
	rv := n.rendezvousFor(name)
	rv.mu.Lock(p)
	myRound := rv.round
	rv.count++
	if rv.count < c.cfg.ThreadsPerNode {
		for rv.round == myRound {
			rv.cond.Wait(p)
		}
		rv.mu.Unlock(p)
		return
	}
	rv.count = 0
	rv.mu.Unlock(p)

	if c.cfg.Nodes > 1 {
		deltas := make([]float64, len(scalars))
		for k, s := range scalars {
			deltas[k] = s.vals[n.id] - s.base[n.id]
		}
		res := c.world.Rank(n.id).Allreduce(p, deltas, 8*len(deltas), sumF64Slice)
		sums := res.([]float64)
		for k, s := range scalars {
			s.vals[n.id] = s.base[n.id] + sums[k]
			s.base[n.id] = s.vals[n.id]
		}
	} else {
		for _, s := range scalars {
			s.base[n.id] = s.vals[n.id]
		}
	}

	rv.mu.Lock(p)
	rv.round++
	rv.cond.Broadcast()
	rv.mu.Unlock(p)
}

// sumF64Slice element-wise adds two []float64 without mutating either.
func sumF64Slice(a, b any) any {
	as, bs := a.([]float64), b.([]float64)
	out := make([]float64, len(as))
	for i := range as {
		out[i] = as[i] + bs[i]
	}
	return out
}

// criticalSDSM is the conventional lowering of Fig. 2 (left): hierarchical
// pthread mutex + distributed SDSM lock around the block.
func (t *Thread) criticalSDSM(name string, fn func()) {
	n, p := t.node, t.p
	t.Compute(localPthreadOp)
	mu := n.mutex("crit:" + name)
	mu.Lock(p)
	id := t.lockID("crit:" + name)
	t.c.engine.AcquireLock(p, n.id, id)
	fn()
	t.c.engine.ReleaseLock(p, n.id, id)
	mu.Unlock(p)
}

// Atomic performs the atomic directive — an atomic accumulation into a
// small shared variable, which maps exactly onto one collective (§4.2).
func (t *Thread) Atomic(s *Scalar, delta float64) {
	rec, t0 := t.directiveStart()
	if t.useCollective(s.SizeBytes()) {
		t.c.cnt(t.node.id).HybridAtomics++
		t.criticalHybrid("atomic:"+s.name, []*Scalar{s}, func() { s.Add(t, delta) })
	} else {
		t.criticalSDSM("atomic:"+s.name, func() { s.Add(t, delta) })
	}
	rec.Directive(t0, t.p.Now(), t.node.id, "atomic", s.name)
}

// Op is a reduction operator.
type Op int

// Reduction operators supported by the reduction clause.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("core: unknown op %d", o))
	}
}

// Reduce implements the reduction clause for one scalar contribution v
// per thread, returning the combined value on every thread.
//
// Hybrid path: local threads combine on the node, the last arrival joins
// one MPI_Allreduce — the lowering that makes the Helmholtz convergence
// test nearly free (§6.2). Conventional path: every thread publishes its
// partial into a shared slot array and reads all slots back after a
// barrier — page transfers plus two SDSM barriers.
func (t *Thread) Reduce(name string, op Op, v float64) float64 {
	rec, t0 := t.directiveStart()
	var out float64
	if t.c.cfg.Mode == Hybrid {
		out = t.reduceHybrid(name, op, v)
	} else {
		out = t.reduceSDSM(name, op, v)
	}
	rec.Directive(t0, t.p.Now(), t.node.id, "reduction", name)
	return out
}

func (t *Thread) reduceHybrid(name string, op Op, v float64) float64 {
	c, n, p := t.c, t.node, t.p
	rv := n.rendezvousFor("red:" + name)
	rv.mu.Lock(p)
	myRound := rv.round
	if rv.count == 0 {
		rv.acc = v
	} else {
		rv.acc = op.apply(rv.acc, v)
	}
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
	local := rv.acc
	rv.mu.Unlock(p)

	result := local
	if c.cfg.Nodes > 1 {
		res := c.world.Rank(n.id).Allreduce(p, local, 8, func(a, b any) any {
			return op.apply(a.(float64), b.(float64))
		})
		result = res.(float64)
	}
	c.cnt(n.id).HybridReductions++

	rv.mu.Lock(p)
	rv.result = result
	rv.round++
	rv.cond.Broadcast()
	rv.mu.Unlock(p)
	return result
}

func (t *Thread) reduceSDSM(name string, op Op, v float64) float64 {
	slots := t.reduceSlots(name)
	slots.Set(t, t.gid, v)
	t.Barrier()
	acc := slots.Get(t, 0)
	for i := 1; i < t.NumThreads(); i++ {
		acc = op.apply(acc, slots.Get(t, i))
	}
	// A second barrier protects the slots from the next round's writes
	// overtaking slow readers.
	t.Barrier()
	return acc
}

// ReduceVec implements a reduction clause over several variables at
// once: per §4.2, multiple reduction variables are merged into one
// structure and reduced with a single collective. Every thread
// contributes a vector of the same length and receives the element-wise
// combination.
func (t *Thread) ReduceVec(name string, op Op, v []float64) []float64 {
	rec, t0 := t.directiveStart()
	var out []float64
	if t.c.cfg.Mode == Hybrid {
		out = t.reduceVecHybrid(name, op, v)
	} else {
		out = t.reduceVecSDSM(name, op, v)
	}
	rec.Directive(t0, t.p.Now(), t.node.id, "reduction", name)
	return out
}

func (t *Thread) reduceVecHybrid(name string, op Op, v []float64) []float64 {
	c, n, p := t.c, t.node, t.p
	rv := n.rendezvousFor("redv:" + name)
	rv.mu.Lock(p)
	myRound := rv.round
	if rv.count == 0 {
		rv.accV = append(rv.accV[:0], v...)
	} else {
		for i := range v {
			rv.accV[i] = op.apply(rv.accV[i], v[i])
		}
	}
	rv.count++
	if rv.count < c.cfg.ThreadsPerNode {
		for rv.round == myRound {
			rv.cond.Wait(p)
		}
		res := append([]float64(nil), rv.resultV...)
		rv.mu.Unlock(p)
		return res
	}
	rv.count = 0
	local := append([]float64(nil), rv.accV...)
	rv.mu.Unlock(p)

	result := local
	if c.cfg.Nodes > 1 {
		res := c.world.Rank(n.id).Allreduce(p, local, 8*len(local), func(a, b any) any {
			as, bs := a.([]float64), b.([]float64)
			out := make([]float64, len(as))
			for i := range as {
				out[i] = op.apply(as[i], bs[i])
			}
			return out
		})
		result = res.([]float64)
	}
	c.cnt(n.id).HybridReductions++

	rv.mu.Lock(p)
	rv.resultV = result
	rv.round++
	rv.cond.Broadcast()
	rv.mu.Unlock(p)
	return append([]float64(nil), result...)
}

func (t *Thread) reduceVecSDSM(name string, op Op, v []float64) []float64 {
	nt := t.NumThreads()
	slots := t.reduceSlotsN(name, nt*len(v))
	for i, x := range v {
		slots.Set(t, t.gid*len(v)+i, x)
	}
	t.Barrier()
	out := make([]float64, len(v))
	for i := range v {
		out[i] = slots.Get(t, i)
	}
	for th := 1; th < nt; th++ {
		for i := range v {
			out[i] = op.apply(out[i], slots.Get(t, th*len(v)+i))
		}
	}
	t.Barrier()
	return out
}

// reduceSlotsN returns the named shared slot array with at least n
// elements, creating it on first use.
func (c *Cluster) reduceSlotsN(name string, n int) F64Array {
	if a, ok := c.slotArrays[name]; ok {
		if a.Len() < n {
			panic("core: reduction slot array reused with a larger width")
		}
		return a
	}
	if c.slotArrays == nil {
		c.slotArrays = map[string]F64Array{}
	}
	a := c.AllocF64(n)
	c.slotArrays[name] = a
	return a
}

// reduceSlots returns the named shared slot array (one float64 per team
// thread), creating it on first use.
func (c *Cluster) reduceSlots(name string) F64Array {
	if a, ok := c.slotArrays[name]; ok {
		return a
	}
	if c.slotArrays == nil {
		c.slotArrays = map[string]F64Array{}
	}
	a := c.AllocF64(c.TotalThreads())
	c.slotArrays[name] = a
	return a
}

// gateInfo tracks one round of a single site on one node.
type gateInfo struct {
	gate   *sim.Gate
	passed int
}

// Single executes fn exactly once in the team (§4.2, Fig. 3). s is the
// small shared variable the block initializes (nil for a pure side-
// effect block). The hybrid lowering executes fn on the master node's
// first-arriving thread and broadcasts the value — no SDSM lock and no
// inter-node barrier. The conventional lowering takes the SDSM lock,
// tests a shared flag, and ends with a full barrier.
func (t *Thread) Single(name string, s *Scalar, fn func()) {
	rec, t0 := t.directiveStart()
	if s == nil && t.c.cfg.Mode == Hybrid || s != nil && t.useCollective(s.SizeBytes()) {
		t.singleHybrid(name, s, fn)
	} else {
		t.singleSDSM(name, fn)
	}
	rec.Directive(t0, t.p.Now(), t.node.id, "single", name)
}

// SingleBarrier is the general single directive for blocks that are not
// statically analyzable (they may touch arbitrary shared pages): both
// modes use the conventional flag + lock + barrier lowering, and the
// modified pages propagate through the barrier's flush.
func (t *Thread) SingleBarrier(name string, fn func()) {
	rec, t0 := t.directiveStart()
	t.singleSDSM(name, fn)
	rec.Directive(t0, t.p.Now(), t.node.id, "single", name)
}

func (t *Thread) singleHybrid(name string, s *Scalar, fn func()) {
	c, n, p := t.c, t.node, t.p
	r := t.round("single:" + name)
	key := fmt.Sprintf("single:%s:%d", name, r)
	t.Compute(localPthreadOp)
	gi := n.gates[key]
	if gi == nil {
		gi = &gateInfo{gate: sim.NewGate(c.s)}
		n.gates[key] = gi
		// First arrival on this node performs the inter-node work.
		if n.id == 0 {
			fn()
			c.cnt(0).HybridSingles++
			var payload float64
			if s != nil {
				payload = s.vals[0]
				s.base[0] = payload
			}
			if c.cfg.Nodes > 1 {
				c.world.Rank(0).Bcast(p, 0, payload, 8)
			}
		} else {
			v := c.world.Rank(n.id).Bcast(p, 0, nil, 8)
			if s != nil {
				s.vals[n.id] = v.(float64)
				s.base[n.id] = v.(float64)
			}
		}
		gi.gate.Open()
	} else {
		gi.gate.Wait(p)
	}
	gi.passed++
	if gi.passed == c.cfg.ThreadsPerNode {
		delete(n.gates, key)
	}
}

// singleSDSM is the conventional lowering of Fig. 3 (left): the shared
// flag decides the earliest thread, guarded by the SDSM lock, followed
// by the implicit barrier.
func (t *Thread) singleSDSM(name string, fn func()) {
	c, n, p := t.c, t.node, t.p
	r := t.round("single:" + name)
	flagAddr := t.singleFlag(name)
	id := t.lockID("single:" + name)
	t.Compute(localPthreadOp)
	mu := n.mutex("single:" + name)
	mu.Lock(p)
	c.engine.AcquireLock(p, n.id, id)
	c.engine.EnsureRead(p, n.id, flagAddr)
	flag := c.engine.Mem(n.id).ReadI64(flagAddr)
	if flag == int64(r) {
		fn()
		c.engine.EnsureWrite(p, n.id, flagAddr)
		c.engine.Mem(n.id).WriteI64(flagAddr, int64(r)+1)
	}
	c.engine.ReleaseLock(p, n.id, id)
	mu.Unlock(p)
	t.Barrier()
}

// singleFlag returns the SDSM address of the named single site's round
// flag, allocating it on first use.
func (c *Cluster) singleFlag(name string) int {
	if addr, ok := c.singles[name]; ok {
		return addr
	}
	addr := c.engine.Alloc.Alloc(8, 8)
	c.singles[name] = addr
	return addr
}
