package fleet

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/stats"
)

// postBatch posts raw JSONL to a test service and decodes the response.
func postBatch(t *testing.T, ts *httptest.Server, body string) (int, http.Header, []JobResult) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, []JobResult{{Error: strings.TrimSpace(string(msg))}}
	}
	var results []JobResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var res JobResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading results: %v", err)
	}
	return resp.StatusCode, resp.Header, results
}

// mustService builds a running test service or fails the test.
func mustService(t *testing.T, opt ServerOptions) *Service {
	t.Helper()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc
}

func specLine(t *testing.T, spec JobSpec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func TestServiceDedupeSkipsExecution(t *testing.T) {
	svc := mustService(t, ServerOptions{Workers: 2, Queue: 8})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := validSpec()
	// Two identical jobs in one batch: one execution, the coalesced twin
	// reports cached.
	batch := specLine(t, spec) + specLine(t, spec)
	code, _, results := postBatch(t, ts, batch)
	if code != http.StatusOK || len(results) != 2 {
		t.Fatalf("code=%d results=%d, want 200 with 2 lines", code, len(results))
	}
	if n := svc.Executor().Executions(); n != 1 {
		t.Fatalf("identical batch ran %d executions, want 1", n)
	}
	cached := 0
	for _, r := range results {
		if r.Status != StatusOK {
			t.Fatalf("result %+v not ok", r)
		}
		if r.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("%d of 2 coalesced results cached, want exactly 1", cached)
	}

	// A repeat batch is a pure cache hit: zero new executions, identical
	// bits.
	_, _, repeat := postBatch(t, ts, specLine(t, spec))
	if n := svc.Executor().Executions(); n != 1 {
		t.Fatalf("cache hit re-executed (%d executions)", n)
	}
	if !repeat[0].Cached {
		t.Fatalf("repeat not served from cache: %+v", repeat[0])
	}
	fresh, err := (&Executor{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(fresh, repeat[0]); d != "" {
		t.Fatalf("cached result differs from a fresh run: %s", d)
	}

	// A genuinely different config does not hit the cache.
	other := validSpec()
	other.Seed = 2
	_, _, _ = postBatch(t, ts, specLine(t, other))
	if n := svc.Executor().Executions(); n != 2 {
		t.Fatalf("distinct config executed %d total, want 2", n)
	}
}

func TestServiceBackpressure429(t *testing.T) {
	// One worker held inside its first job keeps a 2-slot queue
	// genuinely full: a second batch that would fit an empty queue must
	// wait.
	svc := mustService(t, ServerOptions{Workers: 1, Queue: 2})
	defer svc.Drain()
	entered, release := make(chan struct{}, 4), make(chan struct{})
	svc.Executor().BeforeRun = func(JobSpec, *core.Config) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := func(seed int64) string {
		s := validSpec()
		s.Seed = seed
		return specLine(t, s)
	}
	type batch struct {
		results []JobResult
		err     error
	}
	first := make(chan batch, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", strings.NewReader(spec(1)+spec(2)))
		if err != nil {
			first <- batch{err: err}
			return
		}
		defer resp.Body.Close()
		results, err := readResults(resp, 2)
		first <- batch{results, err}
	}()
	<-entered // seed 1 in flight, seed 2 queued
	code, hdr, _ := postBatch(t, ts, spec(3)+spec(4))
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch against a full queue got %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After header")
	}
	// Nothing of the rejected batch was admitted: only the held job has
	// entered a worker, and it has not executed yet.
	if n := svc.Executor().Executions(); n != 0 {
		t.Fatalf("%d executions while the worker is held, want 0", n)
	}
	close(release)
	b := <-first
	if b.err != nil {
		t.Fatalf("admitted batch: %v", b.err)
	}
	for _, r := range b.results {
		if r.Status != StatusOK {
			t.Fatalf("admitted batch result %+v not ok", r)
		}
	}
	// Once the queue drains, the same batch is admitted.
	code, _, results := postBatch(t, ts, spec(3)+spec(4))
	if code != http.StatusOK || len(results) != 2 {
		t.Fatalf("post-rejection batch failed: code=%d %+v", code, results)
	}
	if n := svc.Executor().Executions(); n != 4 {
		t.Fatalf("%d executions, want 4 (the rejected batch ran only once admitted)", n)
	}
}

func TestServiceBatchOverQueue413(t *testing.T) {
	// A batch with more valid jobs than the whole queue bound can never
	// be admitted: 413 with no Retry-After, not a 429 inviting a retry.
	svc := mustService(t, ServerOptions{Workers: 1, Queue: 1})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	a, b := validSpec(), validSpec()
	b.Seed = 2
	code, hdr, res := postBatch(t, ts, specLine(t, a)+specLine(t, b))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2-job batch against a 1-job queue got %d, want 413", code)
	}
	if hdr.Get("Retry-After") != "" {
		t.Fatalf("413 carries Retry-After %q; no wait can admit the batch", hdr.Get("Retry-After"))
	}
	if msg := res[0].Error; !strings.Contains(msg, "1-job queue bound") || !strings.Contains(msg, "-queue") {
		t.Fatalf("413 message %q does not name the bound and -queue", msg)
	}
	if n := svc.Executor().Executions(); n != 0 {
		t.Fatalf("refused batch executed %d jobs", n)
	}
	// A batch that fits still succeeds afterwards.
	code, _, results := postBatch(t, ts, specLine(t, a))
	if code != http.StatusOK || results[0].Status != StatusOK {
		t.Fatalf("post-refusal batch failed: code=%d %+v", code, results)
	}
}

func TestServiceBatchTooLarge(t *testing.T) {
	svc := mustService(t, ServerOptions{Workers: 1, Queue: 8, MaxBatch: 2})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	batch := strings.Repeat(specLine(t, validSpec()), 3)
	code, _, _ := postBatch(t, ts, batch)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("3-line batch with MaxBatch=2 got %d, want 413", code)
	}
}

func TestServiceMalformedLines(t *testing.T) {
	svc := mustService(t, ServerOptions{Workers: 1, Queue: 8})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	batch := "this is not json\n" +
		`{"app":"nope","mode":"hybrid","id":"bad-app"}` + "\n" +
		specLine(t, validSpec())
	code, _, results := postBatch(t, ts, batch)
	if code != http.StatusOK {
		t.Fatalf("mixed batch got %d, want 200 (invalid lines are per-line results)", code)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	byIndex := map[int]JobResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}
	if r := byIndex[0]; r.Status != StatusInvalid || len(r.InvalidFields) == 0 {
		t.Errorf("line 0 (garbage): %+v, want invalid with detail", r)
	}
	if r := byIndex[1]; r.Status != StatusInvalid || r.ID != "bad-app" {
		t.Errorf("line 1 (bad app): %+v, want invalid echoing id", r)
	} else if r.InvalidFields[0].Field != "app" {
		t.Errorf("line 1 field = %q, want app", r.InvalidFields[0].Field)
	}
	if r := byIndex[2]; r.Status != StatusOK {
		t.Errorf("line 2 (valid): %+v, want ok", r)
	}
	// Only the valid line executed.
	if n := svc.Executor().Executions(); n != 1 {
		t.Errorf("mixed batch executed %d jobs, want 1", n)
	}

	// An all-garbage body is still a valid batch of invalid jobs; an empty
	// body is a client error.
	code, _, _ = postBatch(t, ts, "\n\n")
	if code != http.StatusBadRequest {
		t.Errorf("empty batch got %d, want 400", code)
	}
}

func TestServiceDrainSemantics(t *testing.T) {
	svc := mustService(t, ServerOptions{Workers: 1, Queue: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	svc.Drain() // blocks until idle; service refuses work afterwards

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	code, _, _ := postBatch(t, ts, specLine(t, validSpec()))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("batch after drain got %d, want 503", code)
	}
}

func TestServiceMetricsEndpoint(t *testing.T) {
	svc := mustService(t, ServerOptions{Workers: 1, Queue: 8})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	postBatch(t, ts, specLine(t, validSpec()))
	postBatch(t, ts, specLine(t, validSpec())) // cache hit
	postBatch(t, ts, specLine(t, JobSpec{App: "quad", Mode: "hybrid"}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"parade_fleet_jobs_total{status=\"ok\"} 3",
		"parade_fleet_executions_total 2",
		"parade_fleet_jobs_cached_total 1",
		"parade_fleet_cache_hits_total 1",
		"parade_fleet_queue_depth 0",
		"parade_fleet_job_latency_seconds_count 2",
		"parade_sim_msgs_sent_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every counter of the one name table is a series, zeros included —
	// the tasking tallies, which no hand-picked list ever exported, are
	// non-zero after the quad job.
	new(stats.Counters).Each(func(name string, _ int64) {
		if series := "\nparade_sim_" + name + "_total "; !strings.Contains(text, series) {
			t.Errorf("/metrics missing series %q", strings.TrimSpace(series))
		}
	})
	if !regexp.MustCompile(`(?m)^parade_sim_task_executed_total [1-9]`).MatchString(text) {
		t.Error("/metrics: parade_sim_task_executed_total is not positive after a quad job")
	}
	// The one series the name table spells differently from what was
	// published before it stays as an alias with the same value.
	series := func(name string) string {
		return regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindString(text)
	}
	legacy, issued := series("parade_sim_page_fetches_total"), series("parade_sim_page_fetches_issued_total")
	if legacy == "" || strings.TrimPrefix(legacy, "parade_sim_page_fetches_total") !=
		strings.TrimPrefix(issued, "parade_sim_page_fetches_issued_total") {
		t.Errorf("/metrics legacy alias %q does not mirror %q", legacy, issued)
	}
}

func TestReplayAgainstTestServer(t *testing.T) {
	if testing.Short() {
		t.Skip("served matrices in -short mode")
	}
	svc := mustService(t, ServerOptions{Workers: 2, Queue: 64})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		matrix string
		opt    harness.MatrixOptions
	}{
		{"chaos", harness.MatrixOptions{Apps: []string{"ep", "lockmix"}, Profiles: []string{"drop"}}},
		{"crash", harness.MatrixOptions{Apps: []string{"ep", "lockmix"}}},
		{"policy", harness.MatrixOptions{Apps: []string{"ep"}, Modes: []string{"hybrid"}}},
	} {
		t.Run(tc.matrix, func(t *testing.T) {
			rep, err := harness.RunMatrix(tc.matrix, tc.opt)
			if err != nil || !rep.OK() {
				t.Fatalf("RunMatrix: %v %q", err, rep.Failures)
			}
			completed := 0
			for _, run := range rep.Runs {
				if run.Err == "" {
					completed++
				}
			}
			sum, err := Replay(ts.URL, rep, nil)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if sum.Cells != completed || sum.Mismatches != 0 {
				t.Fatalf("summary %+v, want %d cells and 0 mismatches", sum, completed)
			}
			if sum.ExecDelta != 0 || sum.CacheHits != sum.Cells {
				t.Fatalf("repeat batch not fully cached: %+v", sum)
			}
		})
	}
}

// TestReplayDetectsMismatch: the comparator is live — a report whose run
// disagrees with what the service computes fails the replay, naming the
// cell.
func TestReplayDetectsMismatch(t *testing.T) {
	rep, err := harness.RunMatrix("chaos", harness.MatrixOptions{Apps: []string{"ep"}, Profiles: []string{"drop"}})
	if err != nil || !rep.OK() {
		t.Fatalf("RunMatrix: %v %q", err, rep.Failures)
	}
	bad := rep.Runs[1]
	rep.Runs[1].MemHash ^= 1
	svc := mustService(t, ServerOptions{Workers: 2})
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sum, err := Replay(ts.URL, rep, nil)
	if err == nil {
		t.Fatalf("Replay accepted a corrupted mem_hash: %+v", sum)
	}
	if !strings.Contains(err.Error(), bad.Cell.String()+": mem_hash") {
		t.Fatalf("error %q does not name %s", err, bad.Cell)
	}
	if sum.Mismatches != 1 {
		t.Fatalf("%d mismatches, want 1", sum.Mismatches)
	}
}
