package netsim

import (
	"testing"

	"parade/internal/sim"
	"parade/internal/stats"
)

func newNet(t *testing.T, nodes int, f Fabric) (*sim.Simulator, *Network, *stats.Counters) {
	t.Helper()
	s := sim.New(1)
	cpus := make([]*sim.CPU, nodes)
	for i := range cpus {
		cpus[i] = sim.NewCPU(s, 2, 0)
	}
	c := &stats.Counters{}
	return s, New(s, nodes, f, cpus, c), c
}

func TestPointToPointLatency(t *testing.T) {
	f := VIA()
	s, net, c := newNet(t, 2, f)
	var arrived sim.Time
	s.Spawn("recv", func(p *sim.Proc) {
		net.Inbox(1).Pop(p)
		arrived = p.Now()
	})
	s.Spawn("send", func(p *sim.Proc) {
		net.Send(p, &Message{From: 0, To: 1, Bytes: 0})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(f.SendOverhead + f.xferTime(0) + f.Latency)
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
	net.Counters().Fold()
	if c.Messages != 1 {
		t.Fatalf("Messages=%d", c.Messages)
	}
}

func TestBandwidthDominatesLargeMessages(t *testing.T) {
	f := TCP()
	s, net, _ := newNet(t, 2, f)
	const bytes = 1 << 20
	var arrived sim.Time
	s.Spawn("recv", func(p *sim.Proc) {
		net.Inbox(1).Pop(p)
		arrived = p.Now()
	})
	s.Spawn("send", func(p *sim.Proc) {
		net.Send(p, &Message{From: 0, To: 1, Bytes: bytes})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 MiB at 11 MiB/s is ~95 ms; latency and overhead are microseconds.
	if arrived < sim.Time(90*sim.Millisecond) || arrived > sim.Time(100*sim.Millisecond) {
		t.Fatalf("1MiB over TCP arrived at %v, want ~95ms", arrived)
	}
}

func TestNICSerializesBackToBackSends(t *testing.T) {
	f := VIA()
	s, net, _ := newNet(t, 3, f)
	const bytes = 1 << 16
	var t1, t2 sim.Time
	s.Spawn("r1", func(p *sim.Proc) { net.Inbox(1).Pop(p); t1 = p.Now() })
	s.Spawn("r2", func(p *sim.Proc) { net.Inbox(2).Pop(p); t2 = p.Now() })
	s.Spawn("send", func(p *sim.Proc) {
		net.Send(p, &Message{From: 0, To: 1, Bytes: bytes})
		net.Send(p, &Message{From: 0, To: 2, Bytes: bytes})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	gap := t2 - t1
	xfer := sim.Time(f.xferTime(bytes))
	// The second message must wait for the first transfer to finish on the
	// shared NIC (minus the second send overhead that overlaps it).
	if gap < xfer/2 {
		t.Fatalf("sends not serialized: t1=%v t2=%v xfer=%v", t1, t2, xfer)
	}
}

func TestDistinctSendersProceedInParallel(t *testing.T) {
	f := VIA()
	s, net, _ := newNet(t, 3, f)
	const bytes = 1 << 16
	var t1, t2 sim.Time
	s.Spawn("r", func(p *sim.Proc) {
		net.Inbox(2).Pop(p)
		t1 = p.Now()
		net.Inbox(2).Pop(p)
		t2 = p.Now()
	})
	s.Spawn("s0", func(p *sim.Proc) { net.Send(p, &Message{From: 0, To: 2, Bytes: bytes}) })
	s.Spawn("s1", func(p *sim.Proc) { net.Send(p, &Message{From: 1, To: 2, Bytes: bytes}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatalf("parallel sends arrived at %v and %v, want same instant", t1, t2)
	}
}

func TestLocalDeliveryBypassesNIC(t *testing.T) {
	f := VIA()
	s, net, c := newNet(t, 2, f)
	var arrived sim.Time
	s.Spawn("node0", func(p *sim.Proc) {
		net.Send(p, &Message{From: 0, To: 0, Bytes: 4096})
		got := net.Inbox(0).Pop(p)
		arrived = p.Now()
		if got.Bytes != 4096 {
			t.Errorf("payload bytes %d", got.Bytes)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != sim.Time(f.LocalLatency) {
		t.Fatalf("local delivery at %v, want %v", arrived, f.LocalLatency)
	}
	net.Counters().Fold()
	if c.Messages != 0 || c.LocalDeliver != 1 {
		t.Fatalf("counters: %s", c.String())
	}
}

func TestVIAFasterThanTCP(t *testing.T) {
	measure := func(f Fabric) sim.Time {
		s, net, _ := newNet(t, 2, f)
		s.Spawn("recv", func(p *sim.Proc) { net.Inbox(1).Pop(p) })
		s.Spawn("send", func(p *sim.Proc) {
			net.Send(p, &Message{From: 0, To: 1, Bytes: 4096})
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	via, tcp := measure(VIA()), measure(TCP())
	if via >= tcp {
		t.Fatalf("VIA %v not faster than TCP %v for a page transfer", via, tcp)
	}
}

func TestRecvCostChargesCPU(t *testing.T) {
	f := TCP()
	s, net, _ := newNet(t, 1, f)
	var elapsed sim.Time
	s.Spawn("comm", func(p *sim.Proc) {
		net.RecvCost(p, 0)
		elapsed = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != sim.Time(f.RecvOverhead) {
		t.Fatalf("recv cost %v, want %v", elapsed, f.RecvOverhead)
	}
}

func TestByteAccounting(t *testing.T) {
	f := VIA()
	s, net, c := newNet(t, 2, f)
	s.Spawn("recv", func(p *sim.Proc) { net.Inbox(1).Pop(p) })
	s.Spawn("send", func(p *sim.Proc) {
		net.Send(p, &Message{From: 0, To: 1, Bytes: 100})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	net.Counters().Fold()
	if want := int64(100 + f.HeaderBytes); c.Bytes != want {
		t.Fatalf("Bytes=%d, want %d", c.Bytes, want)
	}
}

func TestRendezvousAddsRoundTrip(t *testing.T) {
	f := TCP() // EagerThreshold 16 KiB
	measure := func(bytes int) sim.Time {
		s, net, _ := newNet(t, 2, f)
		var arrived sim.Time
		s.Spawn("recv", func(p *sim.Proc) {
			net.Inbox(1).Pop(p)
			arrived = p.Now()
		})
		s.Spawn("send", func(p *sim.Proc) {
			net.Send(p, &Message{From: 0, To: 1, Bytes: bytes})
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return arrived
	}
	small := measure(16 << 10)     // at the threshold: eager
	large := measure(16<<10 + 256) // just above: rendezvous
	extra := sim.Duration(large-small) - f.xferTime(16<<10+256) + f.xferTime(16<<10)
	if extra < 2*f.Latency {
		t.Fatalf("rendezvous added only %v, want >= %v", extra, 2*f.Latency)
	}
}

func TestVIADisablesRendezvous(t *testing.T) {
	if VIA().EagerThreshold != 0 {
		t.Fatal("cLAN VIA (user-level networking) should not model rendezvous")
	}
}
