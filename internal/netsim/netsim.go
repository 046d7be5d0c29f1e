// Package netsim models the cluster interconnect of the ParADE testbed:
// per-node NICs connected through a switch, parameterized by send/receive
// CPU overhead, wire latency, and bandwidth (a LogGP-style model). Two
// fabric presets mirror the paper's hardware: a Giganet cLAN VIA switch
// and a 3Com Fast Ethernet switch driven through TCP/IP.
package netsim

import (
	"fmt"

	"parade/internal/obs"
	"parade/internal/sim"
	"parade/internal/stats"
)

// Fabric holds the performance parameters of an interconnect.
type Fabric struct {
	Name         string
	SendOverhead sim.Duration // CPU time on the sender per message (o_s)
	RecvOverhead sim.Duration // CPU time on the receiver per message (o_r)
	Latency      sim.Duration // one-way wire latency (L)
	BandwidthBps int64        // bytes per second through one NIC (1/G)
	LocalLatency sim.Duration // same-node loopback delivery latency
	HeaderBytes  int          // per-message protocol header on the wire
	// EagerThreshold is the payload size above which the MPI library
	// switches to a rendezvous protocol, modeled as one extra round trip
	// before the payload moves. Zero disables rendezvous.
	EagerThreshold int
}

// VIA approximates the Giganet cLAN Virtual Interface Architecture switch
// used in the paper (user-level networking: low overhead, ~110 MB/s).
func VIA() Fabric {
	return Fabric{
		Name:         "cLAN-VIA",
		SendOverhead: 3 * sim.Microsecond,
		RecvOverhead: 3 * sim.Microsecond,
		Latency:      7 * sim.Microsecond,
		BandwidthBps: 110 << 20,
		LocalLatency: 500 * sim.Nanosecond,
		HeaderBytes:  32,
	}
}

// TCP approximates MPI/Pro over TCP/IP on the 3Com Fast Ethernet switch
// (kernel networking on a 2.4 kernel: high per-message overhead, ~11 MB/s).
func TCP() Fabric {
	return Fabric{
		Name:         "FastEthernet-TCP",
		SendOverhead: 30 * sim.Microsecond,
		RecvOverhead: 30 * sim.Microsecond,
		Latency:      60 * sim.Microsecond,
		BandwidthBps: 11 << 20,
		LocalLatency: 2 * sim.Microsecond,
		HeaderBytes:  64,
		// MPI/Pro-era TCP stacks switched to rendezvous around 16 KiB.
		EagerThreshold: 16 << 10,
	}
}

// FabricByName resolves a fabric preset by its short name: "via" (the
// cLAN VIA switch, the paper's primary testbed) or "tcp" (Fast Ethernet
// through TCP/IP). The full Fabric.Name strings are accepted too.
func FabricByName(name string) (Fabric, error) {
	switch name {
	case "via", VIA().Name:
		return VIA(), nil
	case "tcp", TCP().Name:
		return TCP(), nil
	}
	return Fabric{}, fmt.Errorf("netsim: unknown fabric %q (have via, tcp)", name)
}

// xferTime is the NIC serialization time for a message of size bytes.
func (f Fabric) xferTime(bytes int) sim.Duration {
	total := int64(bytes + f.HeaderBytes)
	return sim.Duration(total * int64(sim.Second) / f.BandwidthBps)
}

// Kind demultiplexes messages at the receiving communication thread.
type Kind int

const (
	// KindMPI carries application-level MPI traffic (matched by tag).
	KindMPI Kind = iota
	// KindDSM carries SDSM protocol control traffic (dispatched to the
	// protocol engine's handler).
	KindDSM
)

// Message is one unit of traffic. Payload stays in host memory (the whole
// cluster is one Go process); Bytes is the modeled on-wire payload size.
type Message struct {
	From, To int
	Kind     Kind
	Tag      int
	Type     int // protocol-specific subtype for KindDSM
	Bytes    int
	Payload  any
}

// Network connects n nodes through a full-crossbar switch with per-NIC
// serialization: concurrent sends from the same node queue behind each
// other, while different senders proceed in parallel.
type Network struct {
	sim      *sim.Simulator
	fabric   Fabric
	cpus     []*sim.CPU
	inbox    []*sim.Queue[*Message]
	nicFree  []sim.Time      // next instant each node's send NIC is idle
	counters *stats.Registry // the run's one counter registry, created here
	freeDel  [][]*delivery   // pooled arrival events, one free list per node
	rec      *obs.Recorder
	fault    *FaultPlane // nil: ideal fabric, original Send path
	rel      *relState   // reliability sublayer state (set with fault)
	hetero   *Hetero     // nil: uniform cluster (hetero.go)

	// Crash-stop state (crash.go); down is allocated with the fault plane.
	down        []bool
	onPeerDown  func(observer, dead int)
	peerDownErr *PeerDownError
}

// SetRecorder attaches an observability recorder for message phase
// attribution, retry latency and tracing (nil detaches).
func (n *Network) SetRecorder(r *obs.Recorder) { n.rec = r }

// delivery is a pooled message-arrival event: the closure is created
// once per pooled object (bound to the delivery itself), so the
// steady-state Send path schedules arrivals without allocating. Free
// lists are per node: a delivery is acquired from the sender's list and
// recycled into the destination's, so each list is only ever touched by
// its own lane and objects migrate between lanes strictly through the
// window-barrier merge (which establishes the happens-before edge).
type delivery struct {
	net *Network
	dst *sim.Queue[*Message]
	m   *Message
	to  int // recycle target: the node (lane) the arrival fires on
	fn  func()
}

// deliverAt schedules m to be pushed onto dst after d of virtual time.
// from and to are the sending and firing nodes, routing the event
// through the lane kernel's cross-lane staging when lanes are active.
func (n *Network) deliverAt(from, to int, d sim.Duration, dst *sim.Queue[*Message], m *Message) {
	var del *delivery
	pool := n.freeDel[from]
	if k := len(pool) - 1; k >= 0 {
		del = pool[k]
		pool[k] = nil
		n.freeDel[from] = pool[:k]
	} else {
		del = &delivery{net: n}
		del.fn = del.fire
	}
	del.dst, del.m, del.to = dst, m, to
	n.sim.AtFrom(from, to, d, del.fn)
}

// fire runs as the arrival event: recycle first, then push (a Push may
// wake a consumer whose next Send wants a delivery from the pool).
func (del *delivery) fire() {
	dst, m, to := del.dst, del.m, del.to
	del.dst, del.m = nil, nil
	del.net.freeDel[to] = append(del.net.freeDel[to], del)
	dst.Push(m)
}

// New creates a network over the given per-node CPU pools. Send charges
// the fabric's send overhead to the sender's CPU pool, so cpus[i] must be
// node i's pool. The network is the first layer built, so it creates the
// run's counter registry: one row per node, folded into c.
func New(s *sim.Simulator, nodes int, fabric Fabric, cpus []*sim.CPU, c *stats.Counters) *Network {
	if len(cpus) != nodes {
		panic(fmt.Sprintf("netsim: %d cpu pools for %d nodes", len(cpus), nodes))
	}
	n := &Network{
		sim:      s,
		fabric:   fabric,
		cpus:     cpus,
		inbox:    make([]*sim.Queue[*Message], nodes),
		nicFree:  make([]sim.Time, nodes),
		counters: stats.NewRegistry(nodes, c),
		freeDel:  make([][]*delivery, nodes),
	}
	for i := range n.inbox {
		n.inbox[i] = sim.NewQueue[*Message](s)
	}
	return n
}

// Counters returns the run's counter registry. The layers above count
// into it, and Fold on it (simulation quiescent) refreshes the
// *stats.Counters New was given.
func (n *Network) Counters() *stats.Registry { return n.counters }

// Nodes returns the number of attached nodes.
func (n *Network) Nodes() int { return len(n.inbox) }

// Fabric returns the fabric parameters in use.
func (n *Network) Fabric() Fabric { return n.fabric }

// Inbox returns node i's receive mailbox. The node's communication
// thread pops messages from it and pays RecvOverhead per message.
func (n *Network) Inbox(node int) *sim.Queue[*Message] { return n.inbox[node] }

// Send transmits m from p's context: the caller burns the send overhead
// on its node's CPU, then the message serializes through the sender NIC
// and is delivered to the destination inbox after the wire latency.
// Same-node messages bypass the NIC and arrive after LocalLatency.
func (n *Network) Send(p *sim.Proc, m *Message) {
	if m.To < 0 || m.To >= len(n.inbox) {
		panic(fmt.Sprintf("netsim: send to node %d of %d", m.To, len(n.inbox)))
	}
	dst := n.inbox[m.To]
	if m.From == m.To {
		n.counters.At(m.From).LocalDeliver++
		n.deliverAt(m.From, m.To, n.fabric.LocalLatency, dst, m)
		return
	}
	if n.fault != nil {
		n.sendReliable(p, m)
		return
	}
	n.cpus[m.From].Compute(p, n.fabric.SendOverhead)
	c := n.counters.At(m.From)
	c.Messages++
	c.Bytes += int64(m.Bytes + n.fabric.HeaderBytes)
	now := p.Now()
	if n.rec != nil {
		n.rec.MsgSent(now, m.From, m.To, m.Bytes+n.fabric.HeaderBytes, int(m.Kind))
	}
	start := now
	if n.nicFree[m.From] > start {
		start = n.nicFree[m.From]
	}
	xfer := n.fabric.xferTime(m.Bytes)
	n.nicFree[m.From] = start + sim.Time(xfer)
	arrive := start + sim.Time(xfer) + sim.Time(n.fabric.Latency)
	if n.fabric.EagerThreshold > 0 && m.Bytes > n.fabric.EagerThreshold {
		// Rendezvous: an RTS/CTS handshake precedes the payload.
		arrive += sim.Time(2 * n.fabric.Latency)
	}
	n.deliverAt(m.From, m.To, sim.Duration(arrive-now), dst, m)
}

// RecvCost charges the per-message receive overhead to node's CPU from
// p's context, scaled by the node's straggler and heterogeneity factors.
// Communication threads call this once per popped message.
func (n *Network) RecvCost(p *sim.Proc, node int) {
	n.cpus[node].Compute(p, n.hetero.Scale(node, n.fault.scale(node, n.fabric.RecvOverhead)))
}
