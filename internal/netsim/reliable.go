// Reliability sublayer: per-link sequencing, cumulative acks,
// timeout-driven retransmission with capped exponential backoff, and
// duplicate suppression. It sits between Send and the destination inbox,
// below the MPI library and the HLRC protocol engine — neither ever sees
// a sequence number, an ack frame, or a duplicate, so protocol semantics
// are untouched while the wire underneath drops, duplicates, and
// reorders frames.
//
// Data frames ride the modeled NIC (serialization time, per-NIC
// queueing, rendezvous) exactly like the fault-free path; ack frames ride
// a prioritized control channel modeled as latency-only. Because the
// simulator knows a frame's exact arrival instant at send time, the
// retransmit timer is armed at (modeled arrival + worst-case injected
// hold + ack return + slack): with no loss the ack always lands first,
// so a zero-fault profile provably causes zero retransmissions.
//
// The sublayer is active only while a FaultPlane is attached. Everything
// here runs on the simulation kernel's single runnable goroutine, so the
// link state needs no locking.
package netsim

import (
	"parade/internal/sim"
)

// ackWireBytes is the modeled size of an ack control frame.
const ackWireBytes = 16

// pendingFrame is one unacknowledged data frame on a sender link.
type pendingFrame struct {
	m         *Message
	seq       int64
	attempts  int // retransmissions so far
	firstSent sim.Time
	epoch     int // link epoch at first send (stale after a link reset)
}

// relLink is the reliability state of one directed link. Both endpoints'
// state lives in the same struct: the whole cluster is one process.
type relLink struct {
	// Sender side.
	nextSeq int64
	pending map[int64]*pendingFrame
	// Receiver side.
	expected int64              // next in-order sequence number
	buffer   map[int64]*Message // out-of-order arrivals awaiting the gap
	// epoch increments on every link reset (node restart/shrink); timer
	// and arrival closures carry the epoch they were armed under and
	// no-op when it no longer matches.
	epoch int
}

// relState holds the per-link reliability state, indexed from*nodes+to.
type relState struct {
	nodes int
	links []relLink
}

func newRelState(nodes int) *relState {
	return &relState{nodes: nodes, links: make([]relLink, nodes*nodes)}
}

// link initializes both sides of a directed link. Only safe where the
// kernel is serialized (setup, serial crash/restart events, tests):
// under event lanes the sender and receiver sides of one link belong to
// different lanes, so the running paths use sendSide / recvSide, each of
// which lazily initializes only the map its own lane owns.
func (r *relState) link(from, to int) *relLink {
	lk := &r.links[from*r.nodes+to]
	if lk.pending == nil {
		lk.pending = map[int64]*pendingFrame{}
	}
	if lk.buffer == nil {
		lk.buffer = map[int64]*Message{}
	}
	return lk
}

// sendSide returns the link with its sender-side state initialized.
// Call only from node from's context.
func (r *relState) sendSide(from, to int) *relLink {
	lk := &r.links[from*r.nodes+to]
	if lk.pending == nil {
		lk.pending = map[int64]*pendingFrame{}
	}
	return lk
}

// recvSide returns the link with its receiver-side state initialized.
// Call only from node to's context.
func (r *relState) recvSide(from, to int) *relLink {
	lk := &r.links[from*r.nodes+to]
	if lk.buffer == nil {
		lk.buffer = map[int64]*Message{}
	}
	return lk
}

// sendReliable is Send's body when a fault plane is attached: sequence
// the message, track it for retransmission, and put the first copy on
// the wire. The caller-visible accounting (CPU overhead, traffic
// counters, observability) matches the fault-free path.
func (n *Network) sendReliable(p *sim.Proc, m *Message) {
	n.cpus[m.From].Compute(p, n.fault.scale(m.From, n.fabric.SendOverhead))
	c := n.counters.At(m.From)
	c.Messages++
	c.Bytes += int64(m.Bytes + n.fabric.HeaderBytes)
	if n.rec != nil {
		n.rec.MsgSent(p.Now(), m.From, m.To, m.Bytes+n.fabric.HeaderBytes, int(m.Kind))
	}
	lk := n.rel.sendSide(m.From, m.To)
	pf := &pendingFrame{m: m, seq: lk.nextSeq, firstSent: p.Now(), epoch: lk.epoch}
	lk.nextSeq++
	lk.pending[pf.seq] = pf
	n.transmitFrame(pf)
}

// transmitFrame puts one attempt of a data frame on the wire: NIC
// serialization and queueing as in the reliable path, then the fault
// plane decides loss, duplication, and extra delay. It runs in process
// context for first sends and in timer (event) context for
// retransmissions — it must not block, and it charges no CPU beyond the
// overhead already paid at Send.
func (n *Network) transmitFrame(pf *pendingFrame) {
	m := pf.m
	from, to := m.From, m.To
	if n.down != nil && n.down[from] {
		return // a dead node puts nothing on the wire
	}
	fp := n.fault
	now := n.sim.NowOn(from)
	c := n.counters.At(from)
	if pf.attempts > 0 {
		// Retransmitted frames are real wire traffic.
		c.Messages++
		c.Bytes += int64(m.Bytes + n.fabric.HeaderBytes)
	}
	start := now
	if n.nicFree[from] > start {
		start = n.nicFree[from]
	}
	xfer := fp.scale(from, n.fabric.xferTime(m.Bytes))
	n.nicFree[from] = start + sim.Time(xfer)
	arrive := start + sim.Time(xfer) + sim.Time(n.fabric.Latency)
	if n.fabric.EagerThreshold > 0 && m.Bytes > n.fabric.EagerThreshold {
		arrive += sim.Time(2 * n.fabric.Latency)
	}

	lf := fp.faultsFor(from, to)
	// The reorder unit is one frame's own wire time: a held frame can be
	// overtaken by up to ReorderWindow back-to-back successors.
	frameTime := xfer + n.fabric.Latency
	maxHold := sim.Duration(lf.ReorderWindow) * frameTime
	seq, ep := pf.seq, pf.epoch
	rng := fp.rngAt(from)
	dropped := lf.DropProb > 0 && rng.Float64() < lf.DropProb
	if dropped {
		c.InjectedDrops++
	} else {
		var hold sim.Duration
		if lf.ReorderProb > 0 && maxHold > 0 && rng.Float64() < lf.ReorderProb {
			hold = sim.Duration(rng.Int63n(int64(maxHold) + 1))
			c.InjectedDelays++
		}
		n.sim.AtFrom(from, to, sim.Duration(arrive-now)+hold, func() { n.arriveData(from, to, seq, ep, m) })
		if lf.DupProb > 0 && rng.Float64() < lf.DupProb {
			c.InjectedDups++
			n.sim.AtFrom(from, to, sim.Duration(arrive-now)+hold+frameTime, func() { n.arriveData(from, to, seq, ep, m) })
		}
	}

	// Arm the loss detector. The modeled arrival is exact (the simulator
	// just computed it), so the timeout only needs to cover the
	// worst-case injected hold, the ack's return trip, and a slack that
	// doubles per attempt up to the cap.
	slack := fp.prof.RTOSlack
	if slack == 0 {
		slack = 4*n.fabric.Latency + 10*sim.Microsecond
	}
	for i := 0; i < pf.attempts && slack < fp.prof.RTOCap; i++ {
		slack *= 2
	}
	if slack > fp.prof.RTOCap {
		slack = fp.prof.RTOCap
	}
	timeout := sim.Duration(arrive-now) + maxHold + n.ackReturnTime() + slack
	n.sim.AtFrom(from, from, timeout, func() { n.frameTimeout(from, to, seq, ep) })
}

// ackReturnTime is the modeled latency of an ack control frame.
func (n *Network) ackReturnTime() sim.Duration {
	return n.fabric.Latency + n.fabric.xferTime(ackWireBytes)
}

// frameTimeout fires when a data frame's ack deadline passes. A frame
// acked in the meantime left the pending map and the timer is stale, as
// is a timer from before a link reset (epoch mismatch). A crashed
// sender's timers freeze: a dead node does not retransmit.
func (n *Network) frameTimeout(from, to int, seq int64, ep int) {
	lk := n.rel.sendSide(from, to)
	if lk.epoch != ep {
		return
	}
	if n.down != nil && n.down[from] {
		return
	}
	pf := lk.pending[seq]
	if pf == nil {
		return
	}
	pf.attempts++
	n.counters.At(from).Timeouts++
	if pf.attempts > n.fault.prof.MaxAttempts {
		// Retry budget exhausted: declare the peer dead instead of
		// retransmitting forever (or panicking, as before crash support).
		n.peerDown(from, to, pf.attempts)
		return
	}
	n.counters.At(from).Retransmits++
	n.transmitFrame(pf)
}

// arriveData handles one data-frame arrival at the receiving NIC:
// suppress duplicates, restore per-link order, release in-order messages
// to the inbox, and acknowledge cumulatively. Frames addressed to a
// crashed node, or arriving from before a link reset, evaporate.
func (n *Network) arriveData(from, to int, seq int64, ep int, m *Message) {
	lk := n.rel.recvSide(from, to)
	if lk.epoch != ep {
		return
	}
	if n.down != nil && n.down[to] {
		return
	}
	if seq < lk.expected || lk.buffer[seq] != nil {
		// A late original after a retransmit already delivered, or an
		// injected duplicate. Re-ack so the sender stops resending.
		n.counters.At(to).DupsSuppressed++
		n.sendAck(from, to)
		return
	}
	lk.buffer[seq] = m
	for {
		next, ok := lk.buffer[lk.expected]
		if !ok {
			break
		}
		delete(lk.buffer, lk.expected)
		lk.expected++
		n.inbox[to].Push(next)
	}
	n.sendAck(from, to)
}

// sendAck returns a cumulative ack for link from->to (all sequence
// numbers below the receiver's expected counter). Acks ride the
// prioritized control channel (latency-only, no NIC queueing) and are
// themselves subject to loss on the reverse link — a lost ack is
// recovered by the data-frame timeout and the receiver's re-ack.
func (n *Network) sendAck(from, to int) {
	lk := n.rel.recvSide(from, to)
	acked := lk.expected - 1
	n.counters.At(to).AcksSent++
	rev := n.fault.faultsFor(to, from)
	if rev.DropProb > 0 && n.fault.rngAt(to).Float64() < rev.DropProb {
		n.counters.At(to).InjectedDrops++
		return
	}
	ep := lk.epoch
	n.sim.AtFrom(to, from, n.ackReturnTime(), func() { n.arriveAck(from, to, acked, ep) })
}

// arriveAck clears every pending frame the cumulative ack covers and
// records the first-send-to-ack latency of frames that needed a
// retransmission. Acks from before a link reset are stale.
func (n *Network) arriveAck(from, to int, acked int64, ep int) {
	lk := n.rel.sendSide(from, to)
	if lk.epoch != ep {
		return
	}
	now := n.sim.NowOn(from)
	for seq, pf := range lk.pending {
		if seq > acked {
			continue
		}
		if pf.attempts > 0 {
			n.rec.RetrySettled(pf.firstSent, now, from)
		}
		delete(lk.pending, seq)
	}
}

// InFlight reports the number of unacknowledged data frames across every
// link (0 once all traffic settled; used by tests).
func (n *Network) InFlight() int {
	if n.rel == nil {
		return 0
	}
	total := 0
	for i := range n.rel.links {
		total += len(n.rel.links[i].pending)
	}
	return total
}
