package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"parade/internal/harness"
)

// ServerOptions sizes a Service.
type ServerOptions struct {
	Workers  int // worker pool size (default 2)
	Queue    int // admission bound across all batches (default 64)
	Cache    int // LRU result-cache capacity (default 1024)
	MaxBatch int // maximum job lines per request (default 4096)
	MaxLine  int // maximum bytes per JSONL line (default 1 MiB)

	// WALPath, when non-empty, enables the durable result store: every
	// StatusOK result is appended (checksummed, fsynced) to this JSONL
	// log, and NewService replays it into the cache so a restarted
	// server never re-executes a completed cell.
	WALPath string
	// JobDeadline, when positive, is the server-side watchdog: the
	// wall-clock budget applied to every job (a runaway simulation is
	// cooperatively canceled and answered with a typed canceled result).
	// A job's own deadline_ms can only tighten it.
	JobDeadline time.Duration
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Queue == 0 {
		o.Queue = 64
	}
	if o.Cache == 0 {
		o.Cache = 1024
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 4096
	}
	if o.MaxLine == 0 {
		o.MaxLine = 1 << 20
	}
	return o
}

// Service is the sweep service: executor + dedupe cache + worker pool +
// metrics (+ optional durable WAL) behind an http.Handler. Create with
// NewService, expose with Handler, stop with Drain (graceful) or Kill
// (hard stop).
type Service struct {
	exec    *Executor
	cache   *Cache
	pool    *Pool
	metrics *Metrics
	wal     *WAL // nil when WALPath is empty
	opt     ServerOptions

	// flight coalesces concurrent identical jobs: the first runs, the
	// rest wait for its result and report cached=true.
	flightMu sync.Mutex
	flight   map[uint64]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  JobResult
}

// NewService builds a running service (workers started). When
// opt.WALPath is set, the WAL is opened and replayed into the cache
// before the first request can land: a restarted server serves every
// previously completed cell from cache, bit-identical, with zero
// re-executions.
func NewService(opt ServerOptions) (*Service, error) {
	opt = opt.withDefaults()
	s := &Service{
		exec:    NewExecutor(ExecOptions{MaxJobTime: opt.JobDeadline}),
		cache:   NewCache(opt.Cache),
		metrics: NewMetrics(),
		opt:     opt,
		flight:  map[uint64]*flightCall{},
	}
	s.exec.Obs = s.metrics.FoldRun
	if opt.WALPath != "" {
		wal, records, rep, err := OpenWAL(opt.WALPath)
		if err != nil {
			return nil, err
		}
		s.wal = wal
		for _, rec := range records {
			s.cache.Put(rec.FP, rec.Canonical, rec.Result)
		}
		s.metrics.WALReplayDone(rep)
	}
	// Workers start only after the cache is warm, so no job can race the
	// replay.
	s.pool = NewPool(opt.Workers, opt.Queue)
	s.pool.SetObserver(s.metrics.SetQueue)
	return s, nil
}

// Executor returns the service's executor (the run-count probe).
func (s *Service) Executor() *Executor { return s.exec }

// Cache returns the service's result cache.
func (s *Service) Cache() *Cache { return s.cache }

// Metrics returns the service's metrics registry.
func (s *Service) Metrics() *Metrics { return s.metrics }

// WAL returns the service's durable result store (nil when disabled).
func (s *Service) WAL() *WAL { return s.wal }

// Drain stops admission (new batches get 503, /healthz flips to 503),
// waits for every admitted job to finish, then stops the workers and
// closes the WAL.
func (s *Service) Drain() {
	s.pool.Drain()
	if s.wal != nil {
		s.wal.Close()
	}
}

// Kill is the hard stop (the in-process analogue of SIGKILL for chaos
// testing): admission halts, queued jobs are discarded — their response
// lines report a canceled status so in-progress batch streams still
// complete — only already-executing jobs finish, and the WAL is closed.
// Results that reached the WAL before Kill returned are durable; a
// NewService over the same WALPath recovers them.
func (s *Service) Kill() {
	s.pool.Kill()
	if s.wal != nil {
		s.wal.Close()
	}
}

// ServeLoopback exposes a service over real HTTP on an ephemeral
// loopback port. stop closes the listener; it does not drain the
// service.
func ServeLoopback(svc *Service) (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("fleet: listen: %w", err)
	}
	server := &http.Server{Handler: svc.Handler()}
	go server.Serve(ln)
	return "http://" + ln.Addr().String(), func() { server.Close() }, nil
}

// Handler returns the HTTP serving surface:
//
//	POST /v1/jobs  — JSONL batch in, JSONL results out (stream)
//	GET  /metrics  — Prometheus text exposition
//	GET  /healthz  — 200 ok, 503 once draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.pool.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var ws WALStats
	if s.wal != nil {
		ws = s.wal.Stats()
	}
	s.metrics.WritePrometheus(w, s.cache, s.exec.Stats(), ws)
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSONL batch of job specs", http.StatusMethodNotAllowed)
		return
	}

	// Parse the whole batch before writing any response byte: admission
	// is atomic, so backpressure can be a clean 429.
	lines, err := s.readBatch(r)
	if err != nil {
		he := err.(*httpError)
		http.Error(w, he.msg, he.code)
		return
	}

	var jobs []int // indexes of lines that passed validation
	for i := range lines {
		if lines[i].Invalid == nil {
			jobs = append(jobs, i)
		}
	}
	// A batch larger than the whole queue can never be admitted, however
	// long the client waits: refuse it outright instead of inviting a retry.
	if len(jobs) > s.pool.Capacity() {
		http.Error(w, fmt.Sprintf("batch of %d jobs exceeds the %d-job queue bound (parade-serve -queue); split the batch or raise the bound",
			len(jobs), s.pool.Capacity()), http.StatusRequestEntityTooLarge)
		return
	}

	results := make(chan JobResult, len(jobs))
	submit := make([]Job, 0, len(jobs))
	for _, idx := range jobs {
		idx := idx
		job := lines[idx]
		submit = append(submit, Job{
			Run: func() {
				res := s.runJob(job)
				res.Index = idx
				results <- res
			},
			// Kill discards queued jobs; the drop hook completes the
			// response stream with a typed canceled line instead of
			// leaving the client hanging.
			Drop: func() {
				results <- JobResult{
					ID: job.Cell.ID, Index: idx, Status: StatusCanceled,
					App: job.Cell.App, Mode: job.Cell.Mode,
					Error: "dropped: server killed before execution",
				}
			},
		})
	}
	if err := s.pool.SubmitBatch(submit); err != nil {
		s.metrics.BatchDone(true)
		switch err {
		case ErrQueueFull:
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
			http.Error(w, fmt.Sprintf("queue full (%d jobs submitted, %d slots)",
				len(submit), s.pool.Capacity()), http.StatusTooManyRequests)
		case ErrDraining:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.metrics.BatchDone(false)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(res JobResult) {
		s.metrics.JobDone(res.Status, res.Cached, res.HostNs)
		enc.Encode(res)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Invalid lines are answered immediately, then executed results
	// stream in completion order (each line carries its batch index).
	for i := range lines {
		if line := lines[i]; line.Invalid != nil {
			emit(JobResult{
				ID: line.Cell.ID, Index: i, Status: StatusInvalid,
				App: line.Cell.App, Mode: line.Cell.Mode,
				InvalidFields: line.Invalid,
			})
		}
	}
	for range jobs {
		emit(<-results)
	}
}

// httpError carries a status code out of readBatch.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// readBatch parses the request body as JSONL job specs and takes each
// across every spec decision once (JobSpec.Lower): the handler, the cache,
// the WAL and the executor all use that one answer. Parse and validation
// failures are recorded per line (Invalid), not fatal; only an oversized
// batch/line or unreadable body aborts.
func (s *Service) readBatch(r *http.Request) ([]*harness.Lowered, error) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), s.opt.MaxLine)
	var lines []*harness.Lowered
	for sc.Scan() {
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		if len(lines) >= s.opt.MaxBatch {
			return nil, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch exceeds %d jobs", s.opt.MaxBatch)}
		}
		var spec JobSpec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			lines = append(lines, &harness.Lowered{Invalid: []FieldError{
				{Field: "(line)", Reason: fmt.Sprintf("not a JSON job spec: %v", err)}}})
			continue
		}
		lines = append(lines, spec.Lower())
	}
	if err := sc.Err(); err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("reading batch: %v", err)}
	}
	if len(lines) == 0 {
		return nil, &httpError{http.StatusBadRequest, "empty batch (POST one JSON job spec per line)"}
	}
	return lines, nil
}

// retryAfterSeconds estimates how long a client should back off when the
// queue is full: the queue's worth of work at the mean observed job
// latency spread over the workers, floored at one second.
func (s *Service) retryAfterSeconds() int {
	queued, inFlight := s.pool.Depth()
	mean := s.meanJobSeconds()
	est := float64(queued+inFlight) * mean / float64(s.opt.Workers)
	if est < 1 {
		return 1
	}
	return int(est + 0.5)
}

func (s *Service) meanJobSeconds() float64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	if s.metrics.jobLatency.Count == 0 {
		return 0.1 // matrix cells run in the low hundreds of milliseconds
	}
	return s.metrics.jobLatency.Mean() * 1e-9
}

// runJob serves one validated spec: dedupe cache first, then in-flight
// coalescing, then a real execution whose StatusOK result is cached.
func (s *Service) runJob(job *harness.Lowered) JobResult {
	fp, canon := job.Fingerprint, job.Canonical
	if res, ok := s.cache.Get(fp, canon); ok {
		// A hit is provably the stored job's exact result: the canonical
		// strings matched, and a run is a pure function of its canonical
		// config. Never re-run.
		res.ID = job.Cell.ID
		res.Cached = true
		return res
	}

	s.flightMu.Lock()
	if call, ok := s.flight[fp]; ok {
		s.flightMu.Unlock()
		<-call.done
		res := call.res
		res.ID = job.Cell.ID
		res.Cached = true
		return res
	}
	call := &flightCall{done: make(chan struct{})}
	s.flight[fp] = call
	s.flightMu.Unlock()

	res := s.exec.run(job)
	if res.Status == StatusOK {
		s.cache.Put(fp, canon, res)
		if s.wal != nil {
			// Durability before visibility is not required here — the
			// cache is authoritative for this process — but the append is
			// fsynced before the result line reaches the client, so any
			// result a client observed survives a crash.
			s.wal.Append(fp, canon, res)
		}
	}
	call.res = res
	close(call.done)
	s.flightMu.Lock()
	delete(s.flight, fp)
	s.flightMu.Unlock()
	return res
}
