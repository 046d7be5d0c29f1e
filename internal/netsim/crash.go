// Crash-stop node failures. A crashed node keeps its memory (the whole
// cluster is one process) but stops participating: its inbox is drained,
// frames addressed to it evaporate at the receiving NIC, and it neither
// retransmits nor acknowledges. Peers that keep sending exhaust their
// retry budget and surface ErrPeerDown — the signal the recovery
// protocol above (internal/hlrc) is built on.
//
// Crash events require an attached fault plane: detection rides the
// reliability sublayer's retransmit timers. A restart resets every link
// touching the node in both directions and bumps the per-link epoch so
// stale timer and arrival closures from the previous incarnation are
// inert.
package netsim

import (
	"errors"
	"fmt"

	"parade/internal/sim"
)

// ErrPeerDown is the sentinel matched by errors.Is when a link exhausts
// its retransmission budget against a silent peer.
var ErrPeerDown = errors.New("netsim: peer down")

// PeerDownError reports one exhausted link: the observing sender, the
// unresponsive destination, and how many attempts were made.
type PeerDownError struct {
	From, To, Attempts int
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("netsim: peer %d down (observed by %d after %d attempts)",
		e.To, e.From, e.Attempts)
}

func (e *PeerDownError) Unwrap() error { return ErrPeerDown }

// requireFaults panics unless a fault plane (and with it the reliability
// sublayer) is attached — crash semantics are defined on top of it.
func (n *Network) requireFaults(op string) {
	if n.fault == nil {
		panic("netsim: " + op + " requires an attached fault plane (EnableFaults)")
	}
}

// CrashNode marks node as crash-stopped and drains its inbox, returning
// the dropped messages (callers may inspect them; the network has
// forgotten them). Frames already on the wire FROM the node still
// deliver — a crash loses receive and future send capability, not light
// already in flight. Links are deliberately not reset here: peers'
// pending frames against the dead node are exactly the retry traffic
// that detects the crash.
func (n *Network) CrashNode(node int) []*Message {
	n.requireFaults("CrashNode")
	if n.down[node] {
		panic(fmt.Sprintf("netsim: node %d crashed twice", node))
	}
	n.down[node] = true
	var dropped []*Message
	for {
		m, ok := n.inbox[node].TryPop()
		if !ok {
			break
		}
		dropped = append(dropped, m)
	}
	n.counters.At(node).Crashes++
	return dropped
}

// RestartNode brings a crashed node back with empty link state: every
// link touching it is reset in both directions (sequence numbers zeroed,
// pending and reorder buffers cleared, epoch bumped) and its send NIC is
// idle. The node's memory and parked processes are untouched — reviving
// them is the recovery protocol's job.
func (n *Network) RestartNode(node int) {
	n.requireFaults("RestartNode")
	if !n.down[node] {
		panic(fmt.Sprintf("netsim: restart of live node %d", node))
	}
	n.down[node] = false
	n.ResetPeerLinks(node)
	n.nicFree[node] = n.sim.Now()
	n.counters.At(node).NodeRestarts++
}

// ResetPeerLinks resets the reliability state of every link touching
// node, in both directions. Used on restart, and on a shrink (the node
// stays down but survivors must stop retrying into it).
func (n *Network) ResetPeerLinks(node int) {
	n.requireFaults("ResetPeerLinks")
	for peer := 0; peer < len(n.inbox); peer++ {
		if peer == node {
			continue
		}
		n.resetLink(node, peer)
		n.resetLink(peer, node)
	}
}

// resetLink clears one directed link and bumps its epoch so closures
// armed against the previous incarnation become no-ops.
func (n *Network) resetLink(from, to int) {
	lk := n.rel.link(from, to)
	for seq := range lk.pending {
		delete(lk.pending, seq)
	}
	for seq := range lk.buffer {
		delete(lk.buffer, seq)
	}
	lk.nextSeq = 0
	lk.expected = 0
	lk.epoch++
}

// NodeDown reports whether node is currently crash-stopped.
func (n *Network) NodeDown(node int) bool {
	return n.down != nil && n.down[node]
}

// SetPeerDownHandler installs the callback invoked (in event context —
// it must not block) when a link exhausts its retry budget. observer is
// the sending node, dead the unresponsive destination. Without a
// handler the first exhaustion is recorded and retrievable through
// PeerDownErr; the sender's traffic simply stops, which under a live
// workload surfaces as a simulator deadlock.
func (n *Network) SetPeerDownHandler(fn func(observer, dead int)) {
	n.onPeerDown = fn
}

// PeerDownErr returns the first recorded retry exhaustion (nil if none,
// or if a handler consumed them). errors.Is(err, ErrPeerDown) holds.
func (n *Network) PeerDownErr() error {
	if n.peerDownErr == nil {
		return nil // typed nil must not escape into an error interface
	}
	return n.peerDownErr
}

// peerDown is frameTimeout's terminal path: the link from->to is
// declared dead. Its pending frames are dropped (the recovery layer
// resends at protocol granularity, not frame granularity).
func (n *Network) peerDown(from, to, attempts int) {
	lk := n.rel.sendSide(from, to)
	for seq := range lk.pending {
		delete(lk.pending, seq)
	}
	n.counters.At(from).PeerDowns++
	if n.onPeerDown != nil {
		n.onPeerDown(from, to)
		return
	}
	if n.peerDownErr == nil {
		n.peerDownErr = &PeerDownError{From: from, To: to, Attempts: attempts}
	}
}

// ScheduleCrash arms a crash of node after d of virtual time. Drained
// in-flight messages are dropped.
func (n *Network) ScheduleCrash(d sim.Duration, node int) {
	n.requireFaults("ScheduleCrash")
	n.sim.At(d, func() { n.CrashNode(node) })
}

// ScheduleRestart arms a restart of node after d of virtual time.
func (n *Network) ScheduleRestart(d sim.Duration, node int) {
	n.requireFaults("ScheduleRestart")
	n.sim.At(d, func() { n.RestartNode(node) })
}
