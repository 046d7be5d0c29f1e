package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parade/internal/harness"
)

// ReplaySummary reports what a replay covered and found.
type ReplaySummary struct {
	Cells      int // matrix runs served
	Mismatches int // cells whose HTTP result differed from the matrix run
	CacheHits  int // cells served Cached=true on the repeat batch
	// ExecDelta is the change in parade_fleet_executions_total across the
	// repeat batch, scraped from /metrics: 0 proves every repeat was a
	// cache hit that skipped execution.
	ExecDelta int64
}

// Replay serves a finished acceptance matrix through a running service:
// every run rep completed is posted as one batch, twice, and three
// things must hold:
//
//  1. Identity: every cell's HTTP result (ResultBits, MemHash,
//     StateFingerprint, TimeNs, KernelNs) equals the matrix's own run of
//     that cell — the service path adds nothing and loses nothing.
//  2. Dedupe: re-posting the identical batch returns every cell with
//     cached=true and the identical result.
//  3. Cache-skip: /metrics' parade_fleet_executions_total does not move
//     across the repeat batch — hits provably never re-run.
//
// The matrix runs are the reference, so no cell is enumerated or
// executed a second time here. baseURL is the service root (e.g.
// http://127.0.0.1:8080); progress lines go to log, nil discards them. A
// non-nil error reports the first hard failure; mismatch counts are in
// the summary either way.
func Replay(baseURL string, rep harness.MatrixReport, log io.Writer) (ReplaySummary, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	var specs []JobSpec
	var want []JobResult
	for _, run := range rep.Runs {
		if run.Err != "" {
			continue
		}
		spec := run.Cell
		spec.ID = fmt.Sprintf("%s-%d", rep.Matrix, len(specs))
		specs = append(specs, spec)
		want = append(want, runResult(run))
	}
	sum := ReplaySummary{Cells: len(specs)}
	logf("replay: %d %s matrix runs against %s", len(specs), rep.Matrix, baseURL)

	// Jitter is deterministic per matrix seed so two replays of the same
	// matrix back off identically.
	rng := rand.New(rand.NewSource(rep.Options.Seed + 0x9e3779b9))
	first := ""
	compare := func(pass string, got []JobResult) {
		for i, res := range got {
			if diff := diffResults(want[i], res); diff != "" {
				sum.Mismatches++
				logf("replay: MISMATCH%s %s: %s", pass, specs[i], diff)
				if first == "" {
					first = fmt.Sprintf("%s: %s", specs[i], diff)
				}
			}
		}
	}

	// Pass 1: service results must be identical to the matrix runs.
	got, err := postJobs(baseURL, specs, rng, logf)
	if err != nil {
		return sum, fmt.Errorf("replay pass 1: %w", err)
	}
	compare("", got)
	if sum.Mismatches > 0 {
		return sum, fmt.Errorf("replay: %d/%d cells differ from their matrix runs (first %s)",
			sum.Mismatches, sum.Cells, first)
	}
	logf("replay: pass 1 identical to the matrix on all %d cells", sum.Cells)

	// Pass 2: the repeat batch must be all cache hits with identical
	// results, and must not move the execution counter.
	before, err := scrapeExecutions(baseURL)
	if err != nil {
		return sum, fmt.Errorf("replay: scraping /metrics before repeat: %w", err)
	}
	repeat, err := postJobs(baseURL, specs, rng, logf)
	if err != nil {
		return sum, fmt.Errorf("replay pass 2: %w", err)
	}
	after, err := scrapeExecutions(baseURL)
	if err != nil {
		return sum, fmt.Errorf("replay: scraping /metrics after repeat: %w", err)
	}
	sum.ExecDelta = after - before
	for i, res := range repeat {
		if res.Cached {
			sum.CacheHits++
		} else {
			sum.Mismatches++
			logf("replay: repeat of %s not served from cache", specs[i])
		}
	}
	compare(" on cached", repeat)
	if sum.Mismatches > 0 {
		return sum, fmt.Errorf("replay: repeat batch had %d failures", sum.Mismatches)
	}
	if sum.ExecDelta != 0 {
		return sum, fmt.Errorf("replay: repeat batch executed %d simulations; cache hits must never re-run",
			sum.ExecDelta)
	}
	logf("replay: pass 2 all %d cells cached, executions_total unchanged", sum.CacheHits)
	return sum, nil
}

// runResult is the result the service must serve for an in-process run
// of the same cell: the identity observables diffResults compares.
func runResult(run harness.MatrixRun) JobResult {
	var res JobResult
	res.completed(run.Result, run.MemHash, int64(run.Time), int64(run.Kernel))
	return res
}

// postAttempts bounds the overload/restart retry loop: a 429 (queue
// full) is retried after the server's Retry-After hint, a 503 (draining
// server, or a rolling restart's brief gap) and a transport error with
// exponential backoff. Every sleep is jittered so a fleet of clients
// that were rejected together does not reconverge on the same instant.
const postAttempts = 5

// postJobs posts specs as one JSONL batch and returns the results
// ordered by batch index; a missing or duplicate index is an error. It
// is the one batch client of the replay and service-chaos harnesses.
func postJobs(baseURL string, specs []JobSpec, rng *rand.Rand, logf func(string, ...any)) ([]JobResult, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, spec := range specs {
		if err := enc.Encode(spec); err != nil {
			return nil, err
		}
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		wait := 100 * time.Millisecond << (attempt - 1)
		resp, err := http.Post(baseURL+"/v1/jobs", "application/x-ndjson", bytes.NewReader(body.Bytes()))
		switch {
		case err != nil:
			lastErr = fmt.Errorf("POST /v1/jobs: %w", err)
		case resp.StatusCode == http.StatusTooManyRequests:
			hint := time.Second
			if s, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && s > 0 {
				hint = time.Duration(s) * time.Second
			}
			resp.Body.Close()
			lastErr = fmt.Errorf("POST /v1/jobs: 429 queue full")
			wait = hint
		case resp.StatusCode == http.StatusServiceUnavailable:
			resp.Body.Close()
			lastErr = fmt.Errorf("POST /v1/jobs: 503 draining")
		default:
			results, err := readResults(resp, len(specs))
			resp.Body.Close()
			return results, err
		}
		if attempt >= postAttempts {
			return nil, fmt.Errorf("%w (after %d attempts)", lastErr, attempt)
		}
		wait = jitter(wait, rng)
		logf("post: %v, retrying in %v (attempt %d/%d)", lastErr, wait, attempt, postAttempts)
		time.Sleep(wait)
	}
}

// readResults decodes a batch response of n result lines into batch
// index order.
func readResults(resp *http.Response, n int) ([]JobResult, error) {
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	results := make([]JobResult, n)
	seen := make([]bool, n)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var res JobResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("parsing result line: %w", err)
		}
		if res.Index < 0 || res.Index >= n || seen[res.Index] {
			return nil, fmt.Errorf("bad result index %d", res.Index)
		}
		results[res.Index] = res
		seen[res.Index] = true
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading results: %w", err)
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("missing result line for batch index %d", i)
		}
	}
	return results, nil
}

// jitter scales d by a uniform factor in [0.5, 1.5). The explicit
// conversion rounds Float64's inlined product before the add, so no
// architecture fuses them into a multiply-add.
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (0.5 + float64(rng.Float64())))
}

// diffResults compares the identity observables of two results and
// describes the first difference ("" when identical).
func diffResults(want, got JobResult) string {
	switch {
	case got.Status != StatusOK:
		return fmt.Sprintf("status %q (%s)", got.Status, got.Error)
	case got.ResultBits != want.ResultBits:
		return fmt.Sprintf("result_bits %s != %s", got.ResultBits, want.ResultBits)
	case got.MemHash != want.MemHash:
		return fmt.Sprintf("mem_hash %s != %s", got.MemHash, want.MemHash)
	case got.StateFingerprint != want.StateFingerprint:
		return fmt.Sprintf("state_fingerprint %s != %s", got.StateFingerprint, want.StateFingerprint)
	case got.TimeNs != want.TimeNs:
		return fmt.Sprintf("time_ns %d != %d", got.TimeNs, want.TimeNs)
	case got.KernelNs != want.KernelNs:
		return fmt.Sprintf("kernel_ns %d != %d", got.KernelNs, want.KernelNs)
	}
	return ""
}

// scrapeExecutions reads parade_fleet_executions_total off /metrics.
func scrapeExecutions(baseURL string) (int64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "parade_fleet_executions_total ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "parade_fleet_executions_total ")), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing executions_total: %w", err)
		}
		return v, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("parade_fleet_executions_total not found in /metrics")
}
