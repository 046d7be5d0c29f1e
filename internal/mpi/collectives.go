package mpi

import "parade/internal/sim"

// Additional collectives beyond the paper's Bcast/Allreduce set. The
// harness and downstream users get the standard algorithms with their
// canonical message counts: ring allgather, linear scatter from the
// root, and pairwise-exchange alltoall.

// Allgather distributes every rank's contribution to all ranks, returned
// as a slice indexed by rank. bytes is the per-contribution wire size.
// Ring algorithm: n-1 rounds, each rank forwarding the newest block to
// its successor — bandwidth-optimal for large blocks.
func (e *Endpoint) Allgather(p *sim.Proc, val any, bytes int) []any {
	w := e.world
	n := w.AliveSize()
	out := make([]any, w.Size()) // physical indexing; removed ranks nil
	out[e.rank] = val
	if n == 1 {
		return out
	}
	tag := e.nextCollTag()
	rec, t0 := w.collStart(p, e.rank)
	idx := w.logicalOf(e.rank)
	succ := w.phys((idx + 1) % n)
	predIdx := (idx - 1 + n) % n
	pred := w.phys(predIdx)
	// In round r we send the block that originated at position idx - r
	// and receive the block that originated at position predIdx - r.
	for r := 0; r < n-1; r++ {
		sendOrigin := w.phys((idx - r + n) % n)
		recvOrigin := w.phys((predIdx - r + n) % n)
		e.send(p, succ, tag+r, out[sendOrigin], bytes)
		m := e.Recv(p, pred, tag+r)
		out[recvOrigin] = m.Payload
	}
	rec.Collective(t0, p.Now(), e.rank, "allgather", bytes)
	return out
}

// Scatter distributes vals[i] from root to rank i and returns this
// rank's element. vals is only read on the root. Linear sends: the
// paper-era MPICH default for small scatters.
func (e *Endpoint) Scatter(p *sim.Proc, root int, vals []any, bytes int) any {
	w := e.world
	n := w.AliveSize()
	tag := e.nextCollTag()
	rec, t0 := w.collStart(p, e.rank)
	if e.rank == root {
		for i := 0; i < n; i++ {
			r := w.phys(i)
			if r == root {
				continue
			}
			e.send(p, r, tag, vals[r], bytes)
		}
		rec.Collective(t0, p.Now(), e.rank, "scatter", bytes)
		return vals[root]
	}
	v := e.Recv(p, root, tag).Payload
	rec.Collective(t0, p.Now(), e.rank, "scatter", bytes)
	return v
}

// Alltoall performs a complete exchange: rank i sends vals[j] to rank j
// and returns the slice of blocks received (indexed by source rank).
// Pairwise exchange: n-1 rounds with partner rank^r for power-of-two
// sizes, shifted partners otherwise.
func (e *Endpoint) Alltoall(p *sim.Proc, vals []any, bytes int) []any {
	w := e.world
	n := w.AliveSize()
	out := make([]any, w.Size()) // physical indexing; removed ranks nil
	out[e.rank] = vals[e.rank]
	if n == 1 {
		return out
	}
	tag := e.nextCollTag()
	rec, t0 := w.collStart(p, e.rank)
	idx := w.logicalOf(e.rank)
	pow2 := n&(n-1) == 0
	for r := 1; r < n; r++ {
		var pIdx int
		if pow2 {
			pIdx = idx ^ r
		} else {
			pIdx = (idx + r) % n
		}
		partner := w.phys(pIdx)
		e.send(p, partner, tag+r, vals[partner], bytes)
		var fIdx int
		if pow2 {
			fIdx = pIdx
		} else {
			fIdx = (idx - r + n) % n
		}
		from := w.phys(fIdx)
		m := e.Recv(p, from, tag+r)
		out[from] = m.Payload
	}
	rec.Collective(t0, p.Now(), e.rank, "alltoall", bytes)
	return out
}
