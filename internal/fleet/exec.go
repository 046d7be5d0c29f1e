package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/obs"
	"parade/internal/sim"
)

// Job result statuses.
const (
	// StatusOK marks a job that executed (or was served from cache).
	StatusOK = "ok"
	// StatusInvalid marks a job whose spec failed validation; the result
	// line carries the field-level detail.
	StatusInvalid = "invalid"
	// StatusError marks a job whose simulation returned an error.
	StatusError = "error"
	// StatusCanceled marks a job aborted by its deadline (the spec's
	// deadline_ms or the server's job watchdog) or dropped by a killed
	// server before it ran.
	StatusCanceled = "canceled"
	// StatusPanic marks a job whose simulation (or worker) panicked; the
	// result carries the panic value and stack. The panic never escapes
	// the worker — the batch and the process keep serving.
	StatusPanic = "panic"
	// StatusQuarantined marks a job refused without execution because its
	// fingerprint panicked before.
	StatusQuarantined = "quarantined"
)

// Statuses lists every job status in canonical order (the /metrics
// rendering order).
func Statuses() []string {
	return []string{StatusOK, StatusInvalid, StatusError, StatusCanceled, StatusPanic, StatusQuarantined}
}

// JobResult is one JSONL result line: the echo of the job's identity,
// its status, and the run's fingerprints. MemHash is Report.MemHash —
// the engine's StateFingerprint over the final DSM state — and
// StateFingerprint folds the result bits, MemHash, and the virtual
// clock into one run-identity hash: two runs agree there if and only if
// they are bit-identical in every observable the acceptance matrices
// compare.
type JobResult struct {
	ID     string `json:"id,omitempty"`
	Index  int    `json:"index"`
	Status string `json:"status"`
	// Spec echo (normalized form).
	App    string `json:"app,omitempty"`
	Mode   string `json:"mode,omitempty"`
	Config string `json:"config,omitempty"` // full canonical config string
	// Fingerprint is the canonical FNV config fingerprint (the dedupe
	// key), as fixed-width hex.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached reports that the result was served from the dedupe cache
	// (or coalesced onto an identical in-flight job) without re-running.
	Cached bool `json:"cached"`
	// ResultBits is the exact-bits fingerprint of the application's
	// result fields (hex of each float64's bits).
	ResultBits string `json:"result_bits,omitempty"`
	// MemHash is Report.MemHash, the engine StateFingerprint of the
	// final DSM state, as fixed-width hex.
	MemHash string `json:"mem_hash,omitempty"`
	// StateFingerprint is the FNV-1a fold of ResultBits, MemHash, and
	// TimeNs: the single value identity assertions compare.
	StateFingerprint string `json:"state_fingerprint,omitempty"`
	// TimeNs is the virtual time at which the program finished (for
	// StatusCanceled, the virtual time reached before the abort).
	TimeNs int64 `json:"time_ns,omitempty"`
	// KernelNs is the virtual time of the timed kernel region.
	KernelNs int64 `json:"kernel_ns,omitempty"`
	// HostNs is the wall-clock execution time of the run that produced
	// this result (the original run's, when served from cache).
	HostNs int64 `json:"host_ns,omitempty"`
	// Error carries the failure detail for StatusError, StatusCanceled,
	// StatusPanic, and StatusQuarantined.
	Error string `json:"error,omitempty"`
	// InvalidFields carries the field-level detail for StatusInvalid.
	InvalidFields []FieldError `json:"invalid_fields,omitempty"`
}

// foldState computes StateFingerprint from the run observables.
func foldState(resultBits, memHash string, timeNs int64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", resultBits, memHash, timeNs)
	return fmt.Sprintf("%016x", h.Sum64())
}

// completed records a finished run's observables as a StatusOK result —
// the one translation from a run to the identity fields diffResults
// compares, shared by the executor and the harnesses' references.
func (r *JobResult) completed(bits string, memHash uint64, timeNs, kernelNs int64) {
	r.Status = StatusOK
	r.ResultBits = bits
	r.MemHash = fmt.Sprintf("%016x", memHash)
	r.TimeNs = timeNs
	r.KernelNs = kernelNs
	r.StateFingerprint = foldState(r.ResultBits, r.MemHash, r.TimeNs)
}

// QuarantineError is the typed error for a job refused because its
// fingerprint panicked before.
type QuarantineError struct {
	Fingerprint string
	Reason      string
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("fleet: config %s quarantined: %s", e.Fingerprint, e.Reason)
}

// ExecOptions tunes the executor. The zero value runs every job without
// a server-side watchdog.
type ExecOptions struct {
	// MaxJobTime, when positive, is the server-side watchdog applied to
	// every job: the effective deadline is min(MaxJobTime, the spec's
	// deadline_ms). It bounds a runaway simulation's hold on a worker.
	MaxJobTime time.Duration
}

// ExecStats is a point-in-time snapshot of the executor's robustness
// counters.
type ExecStats struct {
	// Executions counts simulations actually started (including ones
	// that panicked) — the run-count probe.
	Executions int64
	// Panics counts jobs answered with StatusPanic.
	Panics int64
	// Cancels counts jobs aborted by a deadline.
	Cancels int64
	// Quarantined counts jobs refused because their fingerprint
	// panicked before.
	Quarantined int64
}

// Executor runs job specs in process. It always executes — deduplication
// lives in Service — and counts executions, so tests and the replay
// harness can prove that cache hits skip it. The zero value is a valid
// executor with zero ExecOptions; use NewExecutor to set them.
type Executor struct {
	executions  atomic.Int64
	panics      atomic.Int64
	cancels     atomic.Int64
	quarantined atomic.Int64

	opt ExecOptions

	quarMu     sync.Mutex
	quarantine map[uint64]string // fingerprint -> reason

	// Obs, when non-nil, is called with each run's observability metrics
	// after the run completes (the Service folds them into /metrics).
	Obs func(m *obs.Metrics)
	// BeforeRun, when non-nil, may adjust each execution's lowered
	// config before the run — the chaos harness's injection point: a
	// cfg.Cancel hook that panics raises the panic inside the simulation.
	BeforeRun func(spec JobSpec, cfg *core.Config)
}

// NewExecutor builds an executor with the given options.
func NewExecutor(opt ExecOptions) *Executor {
	return &Executor{opt: opt}
}

// Executions returns the number of simulations actually run — the
// run-count probe behind the "cache hits never re-execute" tests.
func (e *Executor) Executions() int64 { return e.executions.Load() }

// Stats returns a snapshot of the robustness counters.
func (e *Executor) Stats() ExecStats {
	return ExecStats{
		Executions:  e.executions.Load(),
		Panics:      e.panics.Load(),
		Cancels:     e.cancels.Load(),
		Quarantined: e.quarantined.Load(),
	}
}

// Quarantined returns the quarantined fingerprints (hex) and their
// reasons.
func (e *Executor) Quarantined() map[string]string {
	e.quarMu.Lock()
	defer e.quarMu.Unlock()
	out := make(map[string]string, len(e.quarantine))
	for fp, reason := range e.quarantine {
		out[fmt.Sprintf("%016x", fp)] = reason
	}
	return out
}

// execute runs the spec once. A panic inside the simulation comes back
// from the kernel as a *sim.PanicError; one on the worker goroutine
// itself (BeforeRun, the cell's lowering) is recovered here into the
// same type, so either is a typed result, never a dead worker.
func (e *Executor) execute(spec JobSpec, cfg core.Config) (run harness.MatrixRun, metrics *obs.Metrics, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &sim.PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	if e.BeforeRun != nil {
		e.BeforeRun(spec, &cfg)
	}
	var rec *obs.Recorder
	if e.Obs != nil {
		rec = obs.New(cfg.Nodes)
		cfg.Obs = rec
	}
	e.executions.Add(1)
	run, err = spec.RunWith(cfg)
	if rec != nil {
		metrics = rec.Metrics()
	}
	return run, metrics, err
}

// Run executes the spec's simulation and returns its result. Invalid
// specs are reported as StatusInvalid results (never executed); run
// errors as StatusError; deadline aborts as StatusCanceled; panics as
// StatusPanic (and the fingerprint is quarantined — a cell is
// deterministic, so later identical jobs get StatusQuarantined without
// executing). The returned error is always nil.
func (e *Executor) Run(spec JobSpec) (JobResult, error) {
	return e.run(spec.Lower()), nil
}

// run executes a spec that has already been normalized, identified,
// validated and lowered — once, by the caller (Run for direct callers,
// readBatch for served jobs).
func (e *Executor) run(job *harness.Lowered) JobResult {
	spec, fp, cfg := job.Cell, job.Fingerprint, job.Config
	res := JobResult{
		ID:          spec.ID,
		App:         spec.App,
		Mode:        spec.Mode,
		Config:      job.Canonical,
		Fingerprint: fmt.Sprintf("%016x", fp),
	}
	if job.Invalid != nil {
		res.Status = StatusInvalid
		res.InvalidFields = job.Invalid
		return res
	}
	if reason, ok := e.quarantineReason(fp); ok {
		e.quarantined.Add(1)
		res.Status = StatusQuarantined
		res.Error = (&QuarantineError{Fingerprint: res.Fingerprint, Reason: reason}).Error()
		return res
	}
	cfg.Deadline = effectiveDeadline(e.opt.MaxJobTime, spec.DeadlineMS)

	start := time.Now()
	run, metrics, err := e.execute(spec, cfg)
	res.HostNs = time.Since(start).Nanoseconds()
	if err == nil {
		res.completed(run.Result, run.MemHash, int64(run.Time), int64(run.Kernel))
		if e.Obs != nil && metrics != nil {
			e.Obs(metrics)
		}
		return res
	}
	// Declared here, not above: errors.As moves pe to the heap, and a
	// completed job should not pay for it.
	var pe *sim.PanicError
	switch {
	case errors.As(err, &pe):
		e.panics.Add(1)
		e.setQuarantine(fp, pe)
		res.Status = StatusPanic
		res.Error = fmt.Sprintf("%v\n%s", pe, pe.Stack)
	case errors.Is(err, core.ErrCanceled):
		e.cancels.Add(1)
		res.Status = StatusCanceled
		res.Error = err.Error()
		res.TimeNs = int64(run.Time) // partial: virtual time reached
	default:
		res.Status = StatusError
		res.Error = err.Error()
	}
	return res
}

// effectiveDeadline combines the server watchdog and the spec's own
// deadline_ms: the tighter of the two, 0 when neither is set.
func effectiveDeadline(maxJobTime time.Duration, deadlineMS int64) time.Duration {
	d := maxJobTime
	if deadlineMS > 0 {
		sd := time.Duration(deadlineMS) * time.Millisecond
		if d == 0 || sd < d {
			d = sd
		}
	}
	return d
}

func (e *Executor) quarantineReason(fp uint64) (string, bool) {
	e.quarMu.Lock()
	defer e.quarMu.Unlock()
	reason, ok := e.quarantine[fp]
	return reason, ok
}

func (e *Executor) setQuarantine(fp uint64, pe *sim.PanicError) {
	e.quarMu.Lock()
	if e.quarantine == nil {
		e.quarantine = map[uint64]string{}
	}
	e.quarantine[fp] = fmt.Sprintf("panicked: %v", pe.Value)
	e.quarMu.Unlock()
}
