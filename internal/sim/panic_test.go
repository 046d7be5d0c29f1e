package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

var errBoom = errors.New("boom")

// The panicking functions are named so each test can find its frame in
// PanicError.Stack.
func bodyExplodes()       { panic(errBoom) }
func callbackExplodes()   { panic("callback exploded") }
func hookExplodes() error { panic("hook exploded") }

// bystanders spawns processes the panicking run must tear down: one
// sleeping far past the panic (its later work must never run), one
// parked daemon.
func bystanders(t *testing.T, s *Simulator) {
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(Second)
		t.Error("sleeper ran past the panic")
	})
	s.SpawnDaemon("daemon", func(p *Proc) {
		NewQueue[int](s).Pop(p)
	})
}

// checkPanic asserts err is a *PanicError naming proc, at, and a stack
// frame of fn.
func checkPanic(t *testing.T, err error, proc string, at Time, fn string) *PanicError {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Proc != proc || pe.At != at {
		t.Fatalf("PanicError{Proc %q, At %v}, want {%q, %v}", pe.Proc, pe.At, proc, at)
	}
	if !strings.Contains(pe.Stack, fn) {
		t.Fatalf("PanicError.Stack does not contain %s:\n%s", fn, pe.Stack)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("a panic matches ErrCanceled: %v", err)
	}
	return pe
}

// TestPanicInProcessBody: a process body's panic ends the run with a
// typed error (Unwrap reaches an error value) and leaks no goroutine.
func TestPanicInProcessBody(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	bystanders(t, s)
	s.Spawn("victim", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		bodyExplodes()
	})
	err := s.Run()
	checkPanic(t, err, "victim", Time(5*Microsecond), "bodyExplodes")
	if !errors.Is(err, errBoom) {
		t.Fatalf("errors.Is(err, errBoom) = false for %v", err)
	}
	if !strings.Contains(err.Error(), "victim") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error text %q names neither the process nor the value", err)
	}
	waitGoroutines(t, base, "body panic")
}

// TestPanicInCallbackOnProcess: an event callback run by a parked
// process (the baton holder) panics on that process's goroutine.
func TestPanicInCallbackOnProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	bystanders(t, s)
	s.Spawn("driver", func(p *Proc) {
		s.At(3*Microsecond, callbackExplodes)
		p.Sleep(10 * Microsecond)
		t.Error("driver resumed after the panic")
	})
	err := s.Run()
	pe := checkPanic(t, err, "driver", Time(3*Microsecond), "callbackExplodes")
	if pe.Value != "callback exploded" {
		t.Fatalf("Value = %v", pe.Value)
	}
	waitGoroutines(t, base, "callback panic on a process goroutine")
}

// TestPanicInCallbackBeforeHandOff: a callback Run's own goroutine runs
// before any process started panics; the never-started processes unwind.
func TestPanicInCallbackBeforeHandOff(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	s.At(2*Microsecond, func() {
		s.At(0, callbackExplodes) // ahead of the spawns' start events
		bystanders(t, s)
	})
	err := s.Run()
	checkPanic(t, err, "", Time(2*Microsecond), "callbackExplodes")
	waitGoroutines(t, base, "callback panic on Run's goroutine")
}

// TestPanicDuringTeardown: a deferred call that panics while teardown
// unwinds its goroutine turns an otherwise clean run into a PanicError.
func TestPanicDuringTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	s.SpawnDaemon("daemon", func(p *Proc) {
		defer callbackExplodes()
		NewQueue[int](s).Pop(p) // parked until teardown
	})
	s.Spawn("worker", func(p *Proc) { p.Sleep(Microsecond) })
	checkPanic(t, s.Run(), "daemon", Time(Microsecond), "callbackExplodes")
	waitGoroutines(t, base, "teardown panic")
}

// TestPanicInCancelHook: the cancellation hook is simulation code too.
func TestPanicInCancelHook(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	s.SetCancel(hookExplodes, 1)
	bystanders(t, s)
	s.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	checkPanic(t, s.Run(), "", 0, "hookExplodes")
	waitGoroutines(t, base, "cancel-hook panic")
}
