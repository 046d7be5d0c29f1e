package core

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// spinForever is a program that can never finish: an infinite
// barrier-heavy loop across the cluster, the shape of a livelocked
// configuration the deadline guard exists for.
func spinForever(m *Thread) {
	for {
		m.Parallel(func(tc *Thread) {
			tc.Barrier()
		})
	}
}

// TestDeadlineAbortsRun: a run over its wall-clock budget returns an
// error matching ErrCanceled, carrying a *DeadlineError cause, plus a
// partial report with the counters accumulated so far — and unwinds all
// simulation goroutines. The subtest is named for the sequential kernel,
// the only one the runtime has.
func TestDeadlineAbortsRun(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		base := runtime.NumGoroutine()
		cfg := Config{Nodes: 2, ThreadsPerNode: 1, Deadline: 50 * time.Millisecond}
		rep, err := Run(cfg, spinForever)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled match", err)
		}
		var de *DeadlineError
		if !errors.As(err, &de) || de.Limit != 50*time.Millisecond {
			t.Fatalf("err = %v, want *DeadlineError{Limit: 50ms}", err)
		}
		if rep.Time <= 0 {
			t.Fatalf("partial report Time = %v, want > 0", rep.Time)
		}
		if rep.Counters.Barriers+rep.Counters.MPIBarrier == 0 {
			t.Fatalf("partial report has no barrier counters: %+v", rep.Counters)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines leaked: %d live, want <= %d", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestCancelHookAbortsRun: an external cancellation hook cancels the run
// and its cause is preserved through the error chain.
func TestCancelHookAbortsRun(t *testing.T) {
	cause := errors.New("shutdown requested")
	cfg := Config{Nodes: 2, ThreadsPerNode: 1, Cancel: func() error { return cause }}
	_, err := Run(cfg, spinForever)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want ErrCanceled and cause match", err)
	}
}

// TestDeadlineUnusedIsFree: a run that finishes within its budget is
// byte-identical to one with no deadline at all.
func TestDeadlineUnusedIsFree(t *testing.T) {
	prog := func(m *Thread) {
		for i := 0; i < 5; i++ {
			m.Parallel(func(tc *Thread) { tc.Barrier() })
		}
	}
	plain := run(t, Config{Nodes: 2, ThreadsPerNode: 1}, prog)
	guarded := run(t, Config{Nodes: 2, ThreadsPerNode: 1, Deadline: time.Minute}, prog)
	if plain.Time != guarded.Time || plain.MemHash != guarded.MemHash {
		t.Fatalf("deadline guard perturbed an in-budget run: %v/%x vs %v/%x",
			plain.Time, plain.MemHash, guarded.Time, guarded.MemHash)
	}
}

// TestNegativeDeadlineRejected: validation catches a negative budget.
func TestNegativeDeadlineRejected(t *testing.T) {
	_, err := Run(Config{Nodes: 1, Deadline: -time.Second}, func(m *Thread) {})
	if err == nil {
		t.Fatal("negative Deadline accepted")
	}
}
