package fleet

import (
	"strings"
	"testing"
	"time"

	"parade/internal/core"
)

// panicsInSim returns a BeforeRun hook that makes the run of target
// panic inside the simulation: the kernel polls the cancellation hook on
// a process goroutine.
func panicsInSim(target JobSpec) func(JobSpec, *core.Config) {
	fp := target.Fingerprint()
	return func(spec JobSpec, cfg *core.Config) {
		if spec.Fingerprint() == fp {
			cfg.Cancel = func() error { panic("poisoned cell") }
		}
	}
}

// TestExecPanicInSimulation: a panic raised inside a running simulation
// is a typed StatusPanic result carrying the value and the stack, the
// fingerprint is quarantined at once, and the executor keeps serving.
func TestExecPanicInSimulation(t *testing.T) {
	// cg runs for several kernel poll intervals, so the hook is polled.
	poisoned := JobSpec{App: "cg", Mode: "hybrid", Nodes: 2}
	exec := NewExecutor(ExecOptions{})
	exec.BeforeRun = panicsInSim(poisoned)
	res, err := exec.Run(poisoned)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Status != StatusPanic {
		t.Fatalf("status = %q (%s), want %q", res.Status, res.Error, StatusPanic)
	}
	for _, want := range []string{"sim: process", "poisoned cell", "goroutine", "checkCancel"} {
		if !strings.Contains(res.Error, want) {
			t.Fatalf("panic result error does not contain %q:\n%s", want, res.Error)
		}
	}
	if len(exec.Quarantined()) != 1 || exec.Stats().Panics != 1 {
		t.Fatalf("quarantine = %v, stats = %+v, want the poisoned fingerprint and 1 panic",
			exec.Quarantined(), exec.Stats())
	}
	if res, _ := exec.Run(validSpec()); res.Status != StatusOK {
		t.Fatalf("next job status = %q (%s), want ok", res.Status, res.Error)
	}
}

// TestExecPanicExhaustsIntoQuarantine: a panic on the worker goroutine
// (outside the simulation) also becomes a typed StatusPanic result
// carrying the stack, after one execution: its fingerprint is
// quarantined, and the identical spec is refused without executing.
func TestExecPanicExhaustsIntoQuarantine(t *testing.T) {
	exec := NewExecutor(ExecOptions{})
	exec.BeforeRun = func(JobSpec, *core.Config) { panic("poisoned cell") }
	res, err := exec.Run(validSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Status != StatusPanic {
		t.Fatalf("status = %q (%s), want panic", res.Status, res.Error)
	}
	if !strings.Contains(res.Error, "poisoned cell") || !strings.Contains(res.Error, "goroutine") {
		t.Fatalf("panic result error %q does not carry the panic value and stack", res.Error)
	}
	if len(exec.Quarantined()) != 1 {
		t.Fatalf("quarantine = %v, want the poisoned fingerprint", exec.Quarantined())
	}

	exec.BeforeRun = nil // even a now-healthy config stays quarantined
	execsBefore := exec.Executions()
	res, err = exec.Run(validSpec())
	if err != nil {
		t.Fatalf("Run (quarantined): %v", err)
	}
	if res.Status != StatusQuarantined {
		t.Fatalf("quarantined resubmit status = %q, want %q", res.Status, StatusQuarantined)
	}
	if exec.Executions() != execsBefore {
		t.Fatal("quarantined job executed")
	}
	if exec.Stats().Quarantined != 1 {
		t.Fatalf("Quarantined counter = %d, want 1", exec.Stats().Quarantined)
	}
}

// TestExecDeadlineCancels: both the spec's deadline_ms and the server
// watchdog abort a large cell into a typed canceled result with partial
// virtual time, instead of hanging.
func TestExecDeadlineCancels(t *testing.T) {
	slow := JobSpec{App: "cg", Mode: "sdsm", Nodes: 8}
	t.Run("spec deadline_ms", func(t *testing.T) {
		exec := &Executor{}
		spec := slow
		spec.DeadlineMS = 1
		res, err := exec.Run(spec)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Status != StatusCanceled {
			t.Fatalf("status = %q (%s), want canceled", res.Status, res.Error)
		}
		if res.TimeNs <= 0 {
			t.Fatalf("canceled result TimeNs = %d, want partial virtual time > 0", res.TimeNs)
		}
		if !strings.Contains(res.Error, "deadline") {
			t.Fatalf("canceled error %q does not name the deadline", res.Error)
		}
		if exec.Stats().Cancels != 1 {
			t.Fatalf("Cancels = %d, want 1", exec.Stats().Cancels)
		}
	})
	t.Run("server watchdog", func(t *testing.T) {
		exec := NewExecutor(ExecOptions{MaxJobTime: time.Millisecond})
		res, err := exec.Run(slow)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Status != StatusCanceled {
			t.Fatalf("status = %q (%s), want canceled", res.Status, res.Error)
		}
	})
}

// TestDeadlineMSNotIdentity: deadline_ms is execution control, not
// config identity — it must not perturb the canonical string or the
// fingerprint, so a deadline-guarded job still dedupes against its
// unguarded twin.
func TestDeadlineMSNotIdentity(t *testing.T) {
	a := validSpec()
	b := validSpec()
	b.DeadlineMS = 30_000
	if a.Canonical() != b.Canonical() || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("deadline_ms changed identity: %q vs %q", a.Canonical(), b.Canonical())
	}
}

// TestNegativeDeadlineMSInvalid: validation rejects a negative deadline.
func TestNegativeDeadlineMSInvalid(t *testing.T) {
	spec := validSpec()
	spec.DeadlineMS = -1
	exec := &Executor{}
	res, err := exec.Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Status != StatusInvalid {
		t.Fatalf("status = %q, want invalid", res.Status)
	}
}
