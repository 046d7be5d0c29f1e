package netsim

import (
	"testing"

	"parade/internal/obs"
	"parade/internal/sim"
)

// chaosTraffic sends msgs numbered messages on every directed link of an
// n-node network, pops them all, and returns each link's received tag
// sequence keyed by sender.
func chaosTraffic(t *testing.T, net *Network, s *sim.Simulator, n, msgs, bytes int) [][][]int {
	t.Helper()
	got := make([][][]int, n) // got[to][from] = tags in arrival order
	for to := 0; to < n; to++ {
		got[to] = make([][]int, n)
	}
	for to := 0; to < n; to++ {
		to := to
		want := (n - 1) * msgs
		s.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < want; i++ {
				m := net.Inbox(to).Pop(p)
				got[to][m.From] = append(got[to][m.From], m.Tag)
			}
		})
	}
	for from := 0; from < n; from++ {
		from := from
		s.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				for to := 0; to < n; to++ {
					if to == from {
						continue
					}
					net.Send(p, &Message{From: from, To: to, Tag: i, Bytes: bytes})
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// checkInOrder asserts every link delivered 0..msgs-1 exactly once, in
// order.
func checkInOrder(t *testing.T, got [][][]int, n, msgs int) {
	t.Helper()
	for to := 0; to < n; to++ {
		for from := 0; from < n; from++ {
			if from == to {
				continue
			}
			tags := got[to][from]
			if len(tags) != msgs {
				t.Fatalf("link %d->%d delivered %d messages, want %d", from, to, len(tags), msgs)
			}
			for i, tag := range tags {
				if tag != i {
					t.Fatalf("link %d->%d position %d got tag %d (reordered or duplicated)", from, to, i, tag)
				}
			}
		}
	}
}

// TestChaosExactlyOnceInOrder is the core reliability property: under
// every built-in fault profile, every message is delivered to the inbox
// exactly once and in per-link order, and nothing is left in flight.
func TestChaosExactlyOnceInOrder(t *testing.T) {
	const n, msgs = 4, 150
	for _, prof := range Profiles(7) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			s, net, c := newNet(t, n, VIA())
			net.EnableFaults(prof)
			got := chaosTraffic(t, net, s, n, msgs, 256)
			checkInOrder(t, got, n, msgs)
			if net.InFlight() != 0 {
				t.Fatalf("%d frames still unacked after the run", net.InFlight())
			}
			net.Counters().Fold()
			if c.InjectedDrops > 0 && c.Retransmits == 0 {
				t.Fatalf("%d drops injected but no retransmits", c.InjectedDrops)
			}
			if c.Retransmits != c.Timeouts {
				t.Fatalf("Retransmits=%d Timeouts=%d", c.Retransmits, c.Timeouts)
			}
		})
	}
}

// TestChaosZeroProfileNoRetransmits: attaching a plane that injects
// nothing must never cause a spurious retransmit — the retransmit
// timeout covers the exact modeled arrival plus the ack return, so with
// no loss the ack always wins. Exercises both eager and rendezvous
// paths and NIC queueing from back-to-back sends.
func TestChaosZeroProfileNoRetransmits(t *testing.T) {
	const n, msgs = 4, 100
	for _, fabric := range []Fabric{VIA(), TCP()} {
		s, net, c := newNet(t, n, fabric)
		net.EnableFaults(Profile{Name: "none", Seed: 1})
		got := chaosTraffic(t, net, s, n, msgs, 64<<10) // > both eager thresholds
		checkInOrder(t, got, n, msgs)
		net.Counters().Fold()
		if c.Retransmits != 0 || c.Timeouts != 0 || c.DupsSuppressed != 0 {
			t.Fatalf("%s: retransmits=%d timeouts=%d dups=%d on a zero-fault profile",
				fabric.Name, c.Retransmits, c.Timeouts, c.DupsSuppressed)
		}
		if c.InjectedDrops != 0 || c.InjectedDups != 0 || c.InjectedDelays != 0 {
			t.Fatalf("%s: injection counters nonzero: %d/%d/%d",
				fabric.Name, c.InjectedDrops, c.InjectedDups, c.InjectedDelays)
		}
		if c.AcksSent == 0 {
			t.Fatal("reliability sublayer not engaged (no acks)")
		}
	}
}

// TestChaosDisabledCountersZero: without a fault plane the reliability
// and injection counters stay untouched (the legacy Send path).
func TestChaosDisabledCountersZero(t *testing.T) {
	s, net, c := newNet(t, 3, VIA())
	got := chaosTraffic(t, net, s, 3, 50, 1024)
	checkInOrder(t, got, 3, 50)
	net.Counters().Fold()
	if c.AcksSent != 0 || c.Retransmits != 0 || c.Timeouts != 0 || c.DupsSuppressed != 0 ||
		c.InjectedDrops != 0 || c.InjectedDups != 0 || c.InjectedDelays != 0 {
		t.Fatalf("reliability/injection counters nonzero with no fault plane: %+v", *c)
	}
	if net.InFlight() != 0 {
		t.Fatal("rel state allocated without a fault plane")
	}
}

// TestChaosDeterminism: the same (sim seed, profile seed) pair replays
// the identical run — same final virtual time, same counters.
func TestChaosDeterminism(t *testing.T) {
	run := func() (sim.Time, int64, int64, int64) {
		s, net, c := newNet(t, 4, VIA())
		net.EnableFaults(ProfileChaos(42))
		got := chaosTraffic(t, net, s, 4, 120, 512)
		checkInOrder(t, got, 4, 120)
		net.Counters().Fold()
		return s.Now(), c.Retransmits, c.InjectedDrops, c.InjectedDelays
	}
	t1, r1, d1, j1 := run()
	t2, r2, d2, j2 := run()
	if t1 != t2 || r1 != r2 || d1 != d2 || j1 != j2 {
		t.Fatalf("chaos run not reproducible: (%v %d %d %d) vs (%v %d %d %d)",
			t1, r1, d1, j1, t2, r2, d2, j2)
	}
	if r1 == 0 || d1 == 0 || j1 == 0 {
		t.Fatalf("chaos profile injected nothing: retrans=%d drops=%d delays=%d", r1, d1, j1)
	}
}

// TestChaosStragglerSlowsLink: a straggler node's sends serialize slower
// than a healthy node's, delaying its deliveries.
func TestChaosStragglerSlowsLink(t *testing.T) {
	arrivals := func(straggler int) (sim.Time, sim.Time) {
		s, net, _ := newNet(t, 3, VIA())
		prof := Profile{Name: "s", Seed: 1, StragglerNode: straggler, StragglerFactor: 4}
		net.EnableFaults(prof)
		var from0, from1 sim.Time
		s.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				m := net.Inbox(2).Pop(p)
				if m.From == 0 {
					from0 = p.Now()
				} else {
					from1 = p.Now()
				}
			}
		})
		s.Spawn("s0", func(p *sim.Proc) { net.Send(p, &Message{From: 0, To: 2, Bytes: 32 << 10}) })
		s.Spawn("s1", func(p *sim.Proc) { net.Send(p, &Message{From: 1, To: 2, Bytes: 32 << 10}) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return from0, from1
	}
	h0, h1 := arrivals(-1) // no straggler: symmetric links
	if h0 != h1 {
		t.Fatalf("symmetric sends arrived apart: %v vs %v", h0, h1)
	}
	s0, s1 := arrivals(1) // node 1 at 4x
	if s0 != h0 {
		t.Fatalf("healthy node slowed by another node's straggling: %v vs %v", s0, h0)
	}
	if s1 <= s0 {
		t.Fatalf("straggler delivery (%v) not slower than healthy (%v)", s1, s0)
	}
}

// TestChaosPerLinkOverride: SetLink confines injection to one directed
// link; the per-node counter rows show only that sender retransmitting —
// and its msgs_sent include the retransmitted frames — and the
// retry-latency histogram fills.
func TestChaosPerLinkOverride(t *testing.T) {
	const msgs = 200
	s, net, _ := newNet(t, 4, VIA())
	rec := obs.New(4)
	net.SetRecorder(rec)
	fp := net.EnableFaults(Profile{Name: "one-link", Seed: 3})
	fp.SetLink(0, 1, LinkFaults{DropProb: 0.2})
	got := chaosTraffic(t, net, s, 4, msgs, 128)
	checkInOrder(t, got, 4, msgs)
	rows := net.Counters().Rows()
	if rows[0].Retransmits == 0 {
		t.Fatal("no retransmits on the faulted link's sender")
	}
	// Every node sends msgs frames to each of its 3 peers; a retransmitted
	// frame is wire traffic and counts again at its sender.
	for node, row := range rows {
		if node > 0 && row.Retransmits != 0 {
			t.Fatalf("node %d retransmitted %d frames without injected faults", node, row.Retransmits)
		}
		if want := 3*msgs + row.Retransmits; row.Messages != want {
			t.Fatalf("node %d: msgs_sent = %d, want %d sends + %d retransmits", node, row.Messages, 3*msgs, row.Retransmits)
		}
	}
	if h := rec.Metrics().Hist(obs.HistRetryLatency); h.Count == 0 {
		t.Fatal("retry-latency histogram empty despite retransmits")
	}
}
