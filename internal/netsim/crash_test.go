package netsim

import (
	"errors"
	"testing"

	"parade/internal/sim"
)

// TestCrashPeerDownTyped: a sender whose peer crash-stops exhausts its
// retry budget and the network records a typed PeerDownError matchable
// with errors.Is/errors.As.
func TestCrashPeerDownTyped(t *testing.T) {
	s, net, c := newNet(t, 2, VIA())
	net.EnableFaults(ProfileCrashOnly(1))
	s.Spawn("send", func(p *sim.Proc) {
		net.CrashNode(1)
		net.Send(p, &Message{From: 0, To: 1, Tag: 7, Bytes: 256})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	err := net.PeerDownErr()
	if err == nil {
		t.Fatal("no peer-down recorded after retry exhaustion")
	}
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("errors.Is(%v, ErrPeerDown) = false", err)
	}
	var pd *PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("errors.As failed on %T", err)
	}
	if pd.From != 0 || pd.To != 1 {
		t.Fatalf("peer-down link %d->%d, want 0->1", pd.From, pd.To)
	}
	if pd.Attempts <= 1 {
		t.Fatalf("peer declared down after only %d attempts", pd.Attempts)
	}
	net.Counters().Fold()
	if c.PeerDowns != 1 || c.Crashes != 1 {
		t.Fatalf("PeerDowns=%d Crashes=%d, want 1/1", c.PeerDowns, c.Crashes)
	}
	if !net.NodeDown(1) || net.NodeDown(0) {
		t.Fatalf("NodeDown: node1=%v node0=%v", net.NodeDown(1), net.NodeDown(0))
	}
}

// TestCrashDrainsInbox: CrashNode returns the messages sitting in the
// dead node's inbox and forgets them.
func TestCrashDrainsInbox(t *testing.T) {
	s, net, _ := newNet(t, 2, VIA())
	net.EnableFaults(ProfileCrashOnly(2))
	s.Spawn("send", func(p *sim.Proc) {
		net.Send(p, &Message{From: 0, To: 1, Tag: 3, Bytes: 64})
	})
	var dropped []*Message
	s.At(sim.Millisecond, func() { dropped = net.CrashNode(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0].Tag != 3 {
		t.Fatalf("drained %v, want the one undelivered tag-3 message", dropped)
	}
	if got, ok := net.Inbox(1).TryPop(); ok {
		t.Fatalf("inbox not drained: still holds %+v", got)
	}
}

// TestCrashRestartRevivesLinks: after a crash, retry exhaustion fires
// the peer-down handler; a restart resets the link state (fresh
// sequence numbers, bumped epoch) so post-restart traffic flows.
func TestCrashRestartRevivesLinks(t *testing.T) {
	s, net, c := newNet(t, 2, VIA())
	net.EnableFaults(ProfileCrashOnly(3))
	var obsNode, deadNode = -1, -1
	net.SetPeerDownHandler(func(observer, dead int) { obsNode, deadNode = observer, dead })
	g := sim.NewGate(s)
	s.Spawn("first", func(p *sim.Proc) {
		net.CrashNode(1)
		net.Send(p, &Message{From: 0, To: 1, Tag: 1, Bytes: 128}) // evaporates
	})
	s.At(10*sim.Millisecond, func() {
		net.RestartNode(1)
		g.Open()
	})
	s.Spawn("second", func(p *sim.Proc) {
		g.Wait(p)
		net.Send(p, &Message{From: 0, To: 1, Tag: 9, Bytes: 128})
	})
	var got *Message
	s.Spawn("recv", func(p *sim.Proc) {
		got = net.Inbox(1).Pop(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if obsNode != 0 || deadNode != 1 {
		t.Fatalf("peer-down handler saw (%d,%d), want (0,1)", obsNode, deadNode)
	}
	if net.PeerDownErr() != nil {
		t.Fatalf("handler installed but error still recorded: %v", net.PeerDownErr())
	}
	if got == nil || got.Tag != 9 {
		t.Fatalf("post-restart delivery got %+v, want tag 9", got)
	}
	net.Counters().Fold()
	if c.Crashes != 1 || c.NodeRestarts != 1 || c.PeerDowns != 1 {
		t.Fatalf("Crashes=%d NodeRestarts=%d PeerDowns=%d, want 1/1/1",
			c.Crashes, c.NodeRestarts, c.PeerDowns)
	}
	if net.InFlight() != 0 {
		t.Fatalf("%d frames unacked after the post-restart exchange", net.InFlight())
	}
}

// TestScheduleCrashRestart: the virtual-clock arming helpers fire at
// their scheduled times.
func TestScheduleCrashRestart(t *testing.T) {
	s, net, c := newNet(t, 2, VIA())
	net.EnableFaults(ProfileCrashOnly(4))
	net.ScheduleCrash(100*sim.Microsecond, 1)
	net.ScheduleRestart(5*sim.Millisecond, 1)
	var before, during, after bool
	s.At(50*sim.Microsecond, func() { before = net.NodeDown(1) })
	s.At(sim.Millisecond, func() { during = net.NodeDown(1) })
	s.At(6*sim.Millisecond, func() { after = net.NodeDown(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if before || !during || after {
		t.Fatalf("NodeDown timeline before/during/after = %v/%v/%v, want false/true/false",
			before, during, after)
	}
	net.Counters().Fold()
	if c.Crashes != 1 || c.NodeRestarts != 1 {
		t.Fatalf("Crashes=%d NodeRestarts=%d, want 1/1", c.Crashes, c.NodeRestarts)
	}
}

// TestCrashOnlyProfileInert: the crash-only fault plane (reliability
// armed for detection, zero link faults) must not perturb a fault-free
// workload — no retransmits, no injections, and the same virtual
// finish time as the plain zero-fault profile, proving its retry
// parameters only matter when frames are actually lost.
func TestCrashOnlyProfileInert(t *testing.T) {
	run := func(prof Profile) (sim.Time, int64, int64) {
		s, net, c := newNet(t, 3, VIA())
		net.EnableFaults(prof)
		got := chaosTraffic(t, net, s, 3, 80, 512)
		checkInOrder(t, got, 3, 80)
		net.Counters().Fold()
		return s.Now(), c.Retransmits, c.AcksSent
	}
	baseT, baseR, baseA := run(Profile{Name: "none", Seed: 9})
	crashT, crashR, crashA := run(ProfileCrashOnly(9))
	if crashR != 0 || baseR != 0 {
		t.Fatalf("retransmits on zero-fault planes: none=%d crash-only=%d", baseR, crashR)
	}
	if crashA == 0 {
		t.Fatal("reliability sublayer not engaged under the crash-only plane")
	}
	if crashT != baseT || crashA != baseA {
		t.Fatalf("crash-only plane perturbed a fault-free run: time %v vs %v, acks %d vs %d",
			crashT, baseT, crashA, baseA)
	}
}

// TestCrashOnlyNotInProfiles: ProfileCrashOnly is infrastructure for
// the recovery layer, not a chaos matrix row — it must stay out of the
// named profile set and out of ProfileByName.
func TestCrashOnlyNotInProfiles(t *testing.T) {
	for _, prof := range Profiles(1) {
		if prof.Name == ProfileCrashOnly(1).Name {
			t.Fatalf("crash-only profile %q leaked into Profiles()", prof.Name)
		}
	}
	if _, err := ProfileByName(ProfileCrashOnly(1).Name, 1); err == nil {
		t.Fatal("ProfileByName resolved the crash-only profile")
	}
}
