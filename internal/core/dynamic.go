package core

import (
	"fmt"

	"parade/internal/netsim"
	"parade/internal/sim"
)

// Dynamic loop scheduling — the paper's §8 future-work item, provided as
// an extension (the evaluation figures all use the paper's static
// schedule). Iterations are handed out in chunks by a chunk server on
// the master node; remote threads request chunks through the control
// plane, so the scheduling traffic rides the same fabric as everything
// else and load balance trades against message latency exactly as the
// paper anticipates.

// Control message subtypes for the chunk server.
const (
	ctlChunkReq = iota + 10
	ctlChunkReply
)

// chunkReq asks the server for the next chunk of a loop instance. Lo/Hi
// describe the iteration space so the first request materializes it.
type chunkReq struct {
	Key    string
	ReqID  int
	Node   int
	Lo, Hi int
	Chunk  int  // fixed chunk (dynamic) or minimum chunk (guided)
	Guided bool // guided: grant max(remaining/(2*team), Chunk)
}

// chunkReply carries the granted range; Lo >= Hi means the loop is done.
type chunkReply struct {
	ReqID  int
	Lo, Hi int
}

// dynLoop is the server-side state of one loop instance.
type dynLoop struct {
	next, hi int
}

// chunkWait is a requesting node's parked chunk request.
type chunkWait struct {
	gate   *sim.Gate
	lo, hi int
}

// serveCost approximates the server-side bookkeeping per chunk request.
const serveCost = 500 * sim.Nanosecond

// serveChunk advances the loop instance and returns the granted range.
// Runs on node 0 (directly for local threads, on the communication
// thread for remote requests); the simulation kernel serializes both.
func (c *Cluster) serveChunk(req chunkReq) (int, int) {
	if c.dynLoops == nil {
		c.dynLoops = map[string]*dynLoop{}
	}
	dl := c.dynLoops[req.Key]
	if dl == nil {
		dl = &dynLoop{next: req.Lo, hi: req.Hi}
		c.dynLoops[req.Key] = dl
	}
	lo := dl.next
	grant := req.Chunk
	if req.Guided {
		// Guided schedule: exponentially decreasing chunks, floored at
		// the requested minimum.
		remaining := dl.hi - lo
		g := remaining / (2 * c.TotalThreads())
		if g > grant {
			grant = g
		}
	}
	hi := lo + grant
	if hi > dl.hi {
		hi = dl.hi
	}
	dl.next = hi
	return lo, hi
}

// handleChunkReq runs on the master's communication thread.
func (c *Cluster) handleChunkReq(p *sim.Proc, m *netsim.Message) {
	req := m.Payload.(chunkReq)
	c.nodes[0].cpu.Compute(p, serveCost)
	lo, hi := c.serveChunk(req)
	c.net.Send(p, &netsim.Message{
		From: 0, To: req.Node, Kind: KindCtl, Type: ctlChunkReply,
		Bytes: 24, Payload: chunkReply{ReqID: req.ReqID, Lo: lo, Hi: hi},
	})
}

// handleChunkReply wakes the requesting thread on its node.
func (c *Cluster) handleChunkReply(nodeID int, m *netsim.Message) {
	rep := m.Payload.(chunkReply)
	n := c.nodes[nodeID]
	w := n.chunkWaits[rep.ReqID]
	if w == nil {
		panic(fmt.Sprintf("core: chunk reply for unknown request %d", rep.ReqID))
	}
	delete(n.chunkWaits, rep.ReqID)
	w.lo, w.hi = rep.Lo, rep.Hi
	w.gate.Open()
}

// grabChunkOpt obtains the next chunk for the calling thread: served
// directly on the master node, through a control round trip elsewhere.
func (t *Thread) grabChunkOpt(key string, lo, hi, chunk int, guided bool) (int, int) {
	c, n, p := t.c, t.node, t.p
	req := chunkReq{Key: key, Node: n.id, Lo: lo, Hi: hi, Chunk: chunk, Guided: guided}
	if n.id == 0 {
		t.Compute(serveCost)
		return c.serveChunk(req)
	}
	n.chunkSeq++
	req.ReqID = n.chunkSeq
	w := &chunkWait{gate: sim.NewGate(c.s)}
	n.chunkWaits[req.ReqID] = w
	c.net.Send(p, &netsim.Message{
		From: n.id, To: 0, Kind: KindCtl, Type: ctlChunkReq,
		Bytes: 48, Payload: req,
	})
	w.gate.Wait(p)
	return w.lo, w.hi
}

// forServed is the chunk-served loop body shared by the dynamic and
// guided schedules: grab chunks from the master's chunk server until
// the iteration space is exhausted. A positive perIter charges virtual
// compute once per served chunk. The caller handles the implicit
// barrier (or its nowait elision).
func (t *Thread) forServed(cfg *forConfig, lo, hi int, body func(i int)) {
	chunk := cfg.chunk
	if chunk < 1 {
		chunk = 1
	}
	guided := cfg.kind == Guided
	prefix := "dyn:"
	if guided {
		prefix = "gui:"
	}
	name := cfg.name
	if name == "" {
		// Unnamed sites number themselves in per-thread arrival order;
		// SPMD execution makes every thread agree on the numbering.
		name = fmt.Sprintf("for@%d", t.round("anon:"+prefix))
	}
	key := fmt.Sprintf("%s#%d", name, t.round(prefix+name))
	for {
		clo, chi := t.grabChunkOpt(key, lo, hi, chunk, guided)
		if clo >= chi {
			break
		}
		for i := clo; i < chi; i++ {
			body(i)
		}
		if cfg.perIter > 0 {
			t.Compute(cfg.perIter * sim.Duration(chi-clo))
		}
	}
}
