package hlrc

import (
	"fmt"
	"testing"

	"parade/internal/sim"
)

// Regression tests for two concurrency bugs found during bring-up. Both
// are instances of protocol state being observed while a handler or
// fault service was blocked on a virtual-time charge — exactly the class
// of bug the paper's atomic-page-update discussion (§5.1) is about.

// Bug 1: two threads of one node write-faulting the same READ_ONLY page
// could both enter the twinning path; the second thread's twin snapshot
// (taken after its TwinCreate charge) already contained the first
// thread's store, which silently dropped that store from the interval's
// diff. The fix re-checks the page state after the charge.
func TestTwinRaceBothWritesSurvive(t *testing.T) {
	tc := newTestCluster(2, false)
	// Node 1 runs two "threads" (plain procs here) writing two slots of
	// the same page in the same interval; afterwards node 0 (home) must
	// see both.
	written := sim.NewQueue[int](tc.s)
	for th := 0; th < 2; th++ {
		th := th
		tc.s.Spawn(fmt.Sprintf("w%d", th), func(p *sim.Proc) {
			tc.write(p, 1, 8*th, float64(th+1))
			written.Push(th)
		})
	}
	tc.s.Spawn("rep1", func(p *sim.Proc) {
		written.Pop(p)
		written.Pop(p)
		tc.e.Barrier(p, 1)
	})
	tc.s.Spawn("rep0", func(p *sim.Proc) {
		tc.e.Barrier(p, 0)
	})
	if err := tc.run(); err != nil {
		t.Fatal(err)
	}
	if got := tc.e.Mem(0).ReadF64(0); got != 1 {
		t.Fatalf("home slot 0 = %v, want 1 (first thread's write lost)", got)
	}
	if got := tc.e.Mem(0).ReadF64(8); got != 2 {
		t.Fatalf("home slot 1 = %v, want 2 (second thread's write lost)", got)
	}
	if tc.c.TwinsCreated != 1 {
		t.Fatalf("TwinsCreated = %d, want exactly 1 for the shared page", tc.c.TwinsCreated)
	}
}

// Bug 2: the master incremented the barrier epoch only after sending all
// departure messages; because each send charges CPU time (yielding the
// communication thread), a node released by an early departure could
// reach its next barrier and send an arrival stamped with the stale
// epoch. Back-to-back barriers across many nodes exercise the window.
func TestBarrierEpochRace(t *testing.T) {
	tc := newTestCluster(8, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for i := 0; i < 20; i++ {
			tc.e.Barrier(p, node)
		}
	})
	if tc.c.Barriers != 20 {
		t.Fatalf("completed %d barriers, want 20", tc.c.Barriers)
	}
}

// Back-to-back barriers with interleaved work must also stay consistent
// when nodes arrive in shifting orders.
func TestBarrierStormWithSkew(t *testing.T) {
	tc := newTestCluster(4, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for i := 0; i < 10; i++ {
			// Skew arrival order differently each round.
			p.Sleep(sim.Duration((node*7+i*13)%5) * 100 * sim.Microsecond)
			tc.write(p, node, (node*4+i)*256, float64(i))
			tc.e.Barrier(p, node)
		}
	})
	if tc.c.Barriers != 10 {
		t.Fatalf("Barriers = %d", tc.c.Barriers)
	}
}

// Lock release must panic if a non-holder releases (protocol misuse).
// Exercised synchronously against the manager-side state machine so the
// panic is recoverable in the test goroutine.
func TestLockReleaseByNonHolderPanics(t *testing.T) {
	tc := newTestCluster(2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("release by non-holder did not panic")
		}
	}()
	ls := tc.e.lockState(0)
	ls.held = true
	ls.holder = 0
	tc.e.lockRelease(nil, 1, 0, nil) // node 1 never acquired it
}

// A fetch triggered by a read on one thread and a write on another must
// produce a single PageReq and end in the DIRTY state with a twin.
func TestMixedReadWriteFaultsOnOnePage(t *testing.T) {
	tc := newTestCluster(2, false)
	tc.e.Mem(0).WriteF64(0, 5)
	var got float64
	tc.s.Spawn("reader", func(p *sim.Proc) { got = tc.read(p, 1, 0) })
	tc.s.Spawn("writer", func(p *sim.Proc) { tc.write(p, 1, 8, 7) })
	if err := tc.run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("reader got %v", got)
	}
	if tc.c.PageFetches != 1 {
		t.Fatalf("PageFetches = %d, want 1", tc.c.PageFetches)
	}
	if tc.e.Mem(1).ReadF64(8) != 7 {
		t.Fatal("writer's store lost")
	}
}
