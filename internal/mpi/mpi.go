// Package mpi implements the thread-safe MPI subset the ParADE runtime
// is built on (paper §5.3): matched point-to-point send/receive plus the
// collective operations MPI_Bcast and MPI_Allreduce, plus a dissemination
// Barrier. The library is layered over the simulated interconnect, so
// every operation has the paper's message counts: binomial trees for
// broadcast/reduce, recursive doubling for allreduce, dissemination for
// barrier.
//
// "Thread-safe" here means multiple simulated threads of one node may
// have operations in flight concurrently; matching is by (source, tag)
// with unexpected-message queueing, as in a real MPI progress engine.
package mpi

import (
	"fmt"
	"math/bits"

	"parade/internal/netsim"
	"parade/internal/obs"
	"parade/internal/sim"
	"parade/internal/stats"
)

// AnySource matches a receive against messages from any rank.
const AnySource = -1

// Tag space layout: user point-to-point tags must stay below collTagBase;
// collectives use tags derived from a per-endpoint sequence number, which
// stays consistent across ranks because the runtime issues collectives in
// the same order on every node (SPMD execution).
const (
	collTagBase = 1 << 20
	maxUserTag  = collTagBase - 1
)

// World is an MPI communicator spanning one endpoint per cluster node.
type World struct {
	s        *sim.Simulator
	net      *netsim.Network
	eps      []*Endpoint
	counters *stats.Registry // the network's registry (one per run)
	rec      *obs.Recorder
}

// SetRecorder attaches an observability recorder: each rank's pass
// through a collective becomes a latency span (nil detaches).
func (w *World) SetRecorder(r *obs.Recorder) { w.rec = r }

// collStart counts rank's pass through a collective and marks the start
// of its span; it returns the recorder (nil when disabled) and the start
// time.
func (w *World) collStart(p *sim.Proc, rank int) (*obs.Recorder, sim.Time) {
	w.cnt(rank).Collectives++
	if w.rec == nil {
		return nil, 0
	}
	return w.rec, p.Now()
}

// cnt returns rank's counter row.
func (w *World) cnt(rank int) *stats.Counters { return w.counters.At(rank) }

// NewWorld creates a communicator over net with one endpoint per node.
// It counts into net's registry; c must be the counters net was built
// with (the registry's fold destination).
func NewWorld(s *sim.Simulator, net *netsim.Network, c *stats.Counters) *World {
	if c != net.Counters().Total() {
		panic("mpi: NewWorld needs the *stats.Counters its network was built with")
	}
	w := &World{s: s, net: net, counters: net.Counters()}
	w.eps = make([]*Endpoint, net.Nodes())
	for i := range w.eps {
		w.eps[i] = &Endpoint{world: w, rank: i}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.eps) }

// Rank returns the endpoint for the given rank.
func (w *World) Rank(r int) *Endpoint { return w.eps[r] }

// Serve spawns a daemon communication pump for every rank that delivers
// MPI traffic from the network inbox. The ParADE runtime replaces this
// with its own communication thread (which also dispatches DSM protocol
// messages); Serve exists for using the MPI library stand-alone.
func (w *World) Serve() {
	for r := range w.eps {
		r := r
		w.s.SpawnDaemon(fmt.Sprintf("mpi-comm%d", r), func(p *sim.Proc) {
			for {
				m := w.net.Inbox(r).Pop(p)
				w.net.RecvCost(p, r)
				w.eps[r].Deliver(m)
			}
		})
	}
}

// recvReq is a posted receive awaiting a match.
type recvReq struct {
	from, tag int
	box       *sim.Queue[*netsim.Message]
}

// Endpoint is one rank's view of the communicator.
type Endpoint struct {
	world      *World
	rank       int
	posted     []*recvReq
	unexpected []*netsim.Message
	collSeq    int
}

// RankID returns this endpoint's rank.
func (e *Endpoint) RankID() int { return e.rank }

// Deliver hands an incoming MPI message to the matching engine. It is
// called by the node's communication thread and never blocks.
func (e *Endpoint) Deliver(m *netsim.Message) {
	if m.Kind != netsim.KindMPI {
		panic("mpi: Deliver of non-MPI message")
	}
	for i, req := range e.posted {
		if (req.from == AnySource || req.from == m.From) && req.tag == m.Tag {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			req.box.Push(m)
			return
		}
	}
	e.unexpected = append(e.unexpected, m)
}

// Send transmits payload to rank `to` with the given tag. bytes is the
// modeled wire size of the payload. Eager protocol: Send returns as soon
// as the message is injected (after the sender-side CPU overhead).
func (e *Endpoint) Send(p *sim.Proc, to, tag int, payload any, bytes int) {
	if tag < 0 || tag > maxUserTag {
		panic(fmt.Sprintf("mpi: user tag %d out of range", tag))
	}
	e.send(p, to, tag, payload, bytes)
}

func (e *Endpoint) send(p *sim.Proc, to, tag int, payload any, bytes int) {
	e.world.cnt(e.rank).Sends++
	e.world.net.Send(p, &netsim.Message{
		From: e.rank, To: to, Kind: netsim.KindMPI,
		Tag: tag, Payload: payload, Bytes: bytes,
	})
}

// Recv blocks p until a message from `from` (or AnySource) with the given
// tag arrives, and returns it. Messages that arrived before the receive
// was posted are taken from the unexpected queue in arrival order.
func (e *Endpoint) Recv(p *sim.Proc, from, tag int) *netsim.Message {
	for i, m := range e.unexpected {
		if (from == AnySource || from == m.From) && tag == m.Tag {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			return m
		}
	}
	req := &recvReq{from: from, tag: tag, box: sim.NewQueue[*netsim.Message](e.world.s)}
	e.posted = append(e.posted, req)
	return req.box.Pop(p)
}

// nextCollTag issues the base tag for this endpoint's next collective.
// All ranks call collectives in the same global order, so sequence
// numbers agree across endpoints. Each collective owns a stride of 64
// tags so multi-round algorithms can use one tag per round without
// colliding with the next collective.
func (e *Endpoint) nextCollTag() int {
	e.collSeq++
	return collTagBase + e.collSeq*64
}

// Bcast broadcasts payload/bytes from root along a binomial tree. On the
// root it returns payload; elsewhere it returns the received payload.
func (e *Endpoint) Bcast(p *sim.Proc, root int, payload any, bytes int) any {
	w := e.world
	n := w.Size()
	tag := e.nextCollTag()
	if n == 1 {
		return payload
	}
	w.cnt(e.rank).Bcasts++
	rec, t0 := w.collStart(p, e.rank)
	rel := (e.rank - root + n) % n
	// Walk up the tree to find our parent: the first set bit of rel
	// names the round in which we receive.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (e.rank - mask + n) % n
			m := e.Recv(p, parent, tag)
			payload = m.Payload
			bytes = m.Bytes
			break
		}
		mask <<= 1
	}
	// Then fan out to our children at decreasing distances.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			child := (e.rank + mask) % n
			e.send(p, child, tag, payload, bytes)
		}
	}
	rec.Collective(t0, p.Now(), e.rank, "bcast", bytes)
	return payload
}

// CombineFunc merges two collective contributions. It must be
// commutative and associative so that every rank computes an identical
// result regardless of combine order.
type CombineFunc func(a, b any) any

// Allreduce combines every rank's contribution with combine and returns
// the global result on all ranks. Power-of-two rank counts use recursive
// doubling (log2 n rounds); other counts fall back to a binomial-tree
// reduce to rank 0 followed by a broadcast from it.
func (e *Endpoint) Allreduce(p *sim.Proc, val any, bytes int, combine CombineFunc) any {
	w := e.world
	n := w.Size()
	if n == 1 {
		return val
	}
	w.cnt(e.rank).Allreduces++
	rec, t0 := w.collStart(p, e.rank)
	if n&(n-1) == 0 {
		tag := e.nextCollTag()
		for dist := 1; dist < n; dist <<= 1 {
			partner := e.rank ^ dist
			e.send(p, partner, tag+bits.TrailingZeros(uint(dist)), val, bytes)
			m := e.Recv(p, partner, tag+bits.TrailingZeros(uint(dist)))
			val = combine(val, m.Payload)
		}
	} else {
		// Recursive doubling pairs every rank only when n is a power
		// of two; other node counts reduce to rank 0 and broadcast.
		val = e.reduceToRoot(p, 0, val, bytes, combine)
		val = e.Bcast(p, 0, val, bytes)
	}
	rec.Collective(t0, p.Now(), e.rank, "allreduce", bytes)
	return val
}

// reduceToRoot runs a binomial-tree reduction rooted at root.
func (e *Endpoint) reduceToRoot(p *sim.Proc, root int, val any, bytes int, combine CombineFunc) any {
	w := e.world
	n := w.Size()
	tag := e.nextCollTag()
	rel := (e.rank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := (root + rel - mask) % n
			e.send(p, parent, tag, val, bytes)
			return val // leaf done; its value no longer matters
		}
		if rel+mask < n {
			m := e.Recv(p, (root+rel+mask)%n, tag)
			val = combine(val, m.Payload)
		}
	}
	return val
}

// Barrier blocks p until every rank has entered, using the dissemination
// algorithm: ceil(log2 n) rounds of one send and one receive per rank.
func (e *Endpoint) Barrier(p *sim.Proc) {
	w := e.world
	n := w.Size()
	if n == 1 {
		return
	}
	w.cnt(e.rank).MPIBarrier++
	rec, t0 := w.collStart(p, e.rank)
	tag := e.nextCollTag()
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist<<1 {
		to := (e.rank + dist) % n
		from := (e.rank - dist + n) % n
		e.send(p, to, tag+round, nil, 0)
		e.Recv(p, from, tag+round)
	}
	rec.Collective(t0, p.Now(), e.rank, "mpi_barrier", 0)
}
