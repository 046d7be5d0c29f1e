package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the live goroutine count drops back to at
// most base (procExit's unwound send happens strictly before the
// goroutine's final return, so a just-torn-down run needs a beat).
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines still live (want <= %d):\n%s",
				what, runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// errStop is the cause injected by the cancel hooks below.
var errStop = errors.New("stop requested")

// cancelAfter returns a hook that fires on its nth poll.
func cancelAfter(n int64) func() error {
	var polls atomic.Int64
	return func() error {
		if polls.Add(1) >= n {
			return errStop
		}
		return nil
	}
}

// TestCancelLegacy: a canceled legacy run returns a typed *CanceledError
// wrapping the hook's cause, stops executing events, and unwinds every
// process goroutine.
func TestCancelLegacy(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	s.SetCancel(cancelAfter(3), 16)
	ran := 0
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for {
				p.Sleep(Microsecond)
				ran++
			}
		})
	}
	s.SpawnDaemon("daemon", func(p *Proc) {
		NewQueue[int](s).Pop(p) // parked forever
	})
	err := s.Run()
	if err == nil {
		t.Fatal("canceled run returned nil")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CanceledError", err, err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, errStop) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if ran == 0 {
		t.Fatal("no events ran before cancellation")
	}
	waitGoroutines(t, base, "legacy cancel")
}

// TestCancelHookNeverFires: an installed hook that stays nil does not
// disturb a run's result or its timing.
func TestCancelHookNeverFires(t *testing.T) {
	s := New(1)
	s.SetCancel(func() error { return nil }, 4)
	var end Time
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Microsecond)
		}
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(100*Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

// TestSetCancelAfterRunPanics: the hook must be installed before Run.
func TestSetCancelAfterRunPanics(t *testing.T) {
	s := New(1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCancel after Run did not panic")
		}
	}()
	s.SetCancel(func() error { return nil }, 1)
}

// TestNoGoroutineLeakAfterNormalRun: a completed run unwinds parked
// daemons — nothing outlives Run. The subtest is named for the
// sequential kernel, the only one the simulator has.
func TestNoGoroutineLeakAfterNormalRun(t *testing.T) {
	t.Run("lanes=0", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := New(3)
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(Duration(i+1) * Microsecond)
			})
			s.SpawnDaemon(fmt.Sprintf("d%d", i), func(p *Proc) {
				NewQueue[int](s).Pop(p) // daemon parked forever
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "normal run")
	})
}

// TestNoGoroutineLeakAfterDeadlock: a deadlocked run still reports the
// typed *DeadlockError and unwinds the stuck processes.
func TestNoGoroutineLeakAfterDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(9)
	q := NewQueue[int](s)
	s.Spawn("stuck", func(p *Proc) { q.Pop(p) })
	err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	waitGoroutines(t, base, "deadlock run")
}
