package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/obs"
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
	// StatusPanic marks a job whose worker panicked on every attempt; the
	// result carries the recovered value and stack. The panic never
	// escapes the worker — the batch and the process keep serving.
	StatusPanic = "panic"
	// StatusQuarantined marks a job refused without execution because its
	// fingerprint previously exhausted its panic-retry budget.
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
	// this result (the original run's, when served from cache),
	// including retried attempts.
	HostNs int64 `json:"host_ns,omitempty"`
	// Attempts is the number of execution attempts the result took
	// (> 1 after panic retries; omitted for cached and invalid results).
	Attempts int `json:"attempts,omitempty"`
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

// PanicError is the typed per-job error a recovered worker panic becomes:
// the recovered value and the goroutine stack at the panic site. One
// poisoned cell surfaces as a StatusPanic result; it cannot kill the
// batch or the process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at the panic.
	Stack string
	// Attempts is how many executions were tried before giving up.
	Attempts int
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fleet: job panicked on all %d attempt(s): %v", e.Attempts, e.Value)
}

// QuarantineError is the typed error for a job refused because its
// fingerprint already exhausted the panic-retry budget.
type QuarantineError struct {
	Fingerprint string
	Reason      string
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("fleet: config %s quarantined: %s", e.Fingerprint, e.Reason)
}

// ExecOptions tunes the executor's robustness envelope. The zero value
// selects the defaults noted on each field.
type ExecOptions struct {
	// MaxJobTime, when positive, is the server-side watchdog applied to
	// every job: the effective deadline is min(MaxJobTime, the spec's
	// deadline_ms). It bounds a runaway simulation's hold on a worker.
	MaxJobTime time.Duration
	// MaxAttempts is the execution-attempt budget per job before its
	// fingerprint is quarantined (default 3). Panics are the transient
	// class retried here; simulation errors are deterministic and are
	// never retried.
	MaxAttempts int
	// RetryBase is the first retry's backoff (default 10ms); successive
	// retries double it, capped at RetryCap (default 250ms). Each wait is
	// jittered uniformly in [0.5, 1.5)x so synchronized workers spread.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Sleep replaces time.Sleep between attempts (test hook).
	Sleep func(time.Duration)
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 250 * time.Millisecond
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// ExecStats is a point-in-time snapshot of the executor's robustness
// counters.
type ExecStats struct {
	// Executions counts simulations actually started (every attempt,
	// including ones that panicked) — the run-count probe.
	Executions int64
	// Retries counts re-attempts after a recovered panic.
	Retries int64
	// Panics counts recovered worker panics (every attempt's).
	Panics int64
	// Cancels counts jobs aborted by a deadline.
	Cancels int64
	// Quarantined counts jobs refused because their fingerprint
	// exhausted the retry budget.
	Quarantined int64
}

// Executor runs job specs in process. It always executes — deduplication
// lives in Service — and counts executions, so tests and the replay
// harness can prove that cache hits skip it. The zero value is a valid
// executor with default ExecOptions; use NewExecutor to tune them.
type Executor struct {
	executions  atomic.Int64
	retries     atomic.Int64
	panics      atomic.Int64
	cancels     atomic.Int64
	quarantined atomic.Int64

	opt    ExecOptions
	optSet bool

	quarMu     sync.Mutex
	quarantine map[uint64]string // fingerprint -> reason

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// Obs, when non-nil, is called with each run's observability metrics
	// after the run completes (the Service folds them into /metrics).
	Obs func(m *obs.Metrics)
	// BeforeRun, when non-nil, runs at the start of every execution
	// attempt — the chaos harness's injection point for panics and slow
	// cells. It executes inside the panic-isolation envelope.
	BeforeRun func(spec JobSpec, attempt int)
}

// NewExecutor builds an executor with the given options.
func NewExecutor(opt ExecOptions) *Executor {
	return &Executor{opt: opt.withDefaults(), optSet: true}
}

func (e *Executor) options() ExecOptions {
	if e.optSet {
		return e.opt
	}
	return ExecOptions{}.withDefaults()
}

// Executions returns the number of simulations actually run — the
// run-count probe behind the "cache hits never re-execute" tests.
func (e *Executor) Executions() int64 { return e.executions.Load() }

// Stats returns a snapshot of the robustness counters.
func (e *Executor) Stats() ExecStats {
	return ExecStats{
		Executions:  e.executions.Load(),
		Retries:     e.retries.Load(),
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

// backoff computes the jittered wait before retry attempt (1-based
// count of completed attempts): base·2^(attempt-1) capped at RetryCap,
// scaled by a uniform factor in [0.5, 1.5).
func (e *Executor) backoff(opt ExecOptions, attempt int) time.Duration {
	d := opt.RetryBase << (attempt - 1)
	if d > opt.RetryCap || d <= 0 {
		d = opt.RetryCap
	}
	e.jitterMu.Lock()
	if e.jitter == nil {
		e.jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	f := 0.5 + e.jitter.Float64()
	e.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// attemptOutcome is one execution attempt's result.
type attemptOutcome struct {
	run     harness.MatrixRun
	runErr  error
	metrics *obs.Metrics
	pan     *PanicError
}

// attempt executes one try of the spec inside the panic-isolation
// envelope. A panic anywhere under the cell's run (or the BeforeRun
// hook) is recovered into out.pan with the stack captured at the panic
// site.
func (e *Executor) attempt(spec JobSpec, cfg core.Config, attempt int) (out attemptOutcome) {
	defer func() {
		if v := recover(); v != nil {
			out.pan = &PanicError{Value: v, Stack: string(debug.Stack()), Attempts: attempt}
		}
	}()
	if e.BeforeRun != nil {
		e.BeforeRun(spec, attempt)
	}
	var rec *obs.Recorder
	if e.Obs != nil {
		rec = obs.New(cfg.Nodes)
		cfg.Obs = rec
	}
	e.executions.Add(1)
	out.run, out.runErr = spec.RunWith(cfg)
	if rec != nil {
		out.metrics = rec.Metrics()
	}
	return out
}

// Run executes the spec's simulation and returns its result. Invalid
// specs are reported as StatusInvalid results (never executed); run
// errors as StatusError; deadline aborts as StatusCanceled; exhausted
// panic retries as StatusPanic (and the fingerprint is quarantined —
// later identical jobs get StatusQuarantined without executing). The
// returned error is always nil.
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
	opt := e.options()
	cfg.Deadline = effectiveDeadline(opt.MaxJobTime, spec.DeadlineMS)

	start := time.Now()
	for attempt := 1; ; attempt++ {
		out := e.attempt(spec, cfg, attempt)
		res.HostNs = time.Since(start).Nanoseconds()
		res.Attempts = attempt
		if out.pan != nil {
			e.panics.Add(1)
			if attempt < opt.MaxAttempts {
				e.retries.Add(1)
				opt.Sleep(e.backoff(opt, attempt))
				continue
			}
			e.setQuarantine(fp, out.pan)
			res.Status = StatusPanic
			res.Error = out.pan.Error()
			return res
		}
		if out.runErr != nil {
			if errors.Is(out.runErr, core.ErrCanceled) {
				e.cancels.Add(1)
				res.Status = StatusCanceled
				res.Error = out.runErr.Error()
				res.TimeNs = int64(out.run.Time) // partial: virtual time reached
				return res
			}
			res.Status = StatusError
			res.Error = out.runErr.Error()
			return res
		}
		res.completed(out.run.Result, out.run.MemHash, int64(out.run.Time), int64(out.run.Kernel))
		if e.Obs != nil && out.metrics != nil {
			e.Obs(out.metrics)
		}
		return res
	}
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

func (e *Executor) setQuarantine(fp uint64, pe *PanicError) {
	e.quarMu.Lock()
	if e.quarantine == nil {
		e.quarantine = map[uint64]string{}
	}
	e.quarantine[fp] = fmt.Sprintf("panicked on %d attempt(s), last: %v", pe.Attempts, pe.Value)
	e.quarMu.Unlock()
}
