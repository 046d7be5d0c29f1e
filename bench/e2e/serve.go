package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"parade/internal/core"
	"parade/internal/fleet"
	"parade/internal/harness"
)

// Shape of the serve workloads.
const (
	serveWorkers   = 2
	serveCache     = 65536
	serveProfile   = "drop"
	prewarmBatches = 16
)

// serveInstance is an in-process fleet.Service behind a real loopback
// http.Server with one closed-loop client. Every pass POSTs one batch:
// the whole scenario matrix under the drop profile at one fault seed.
type serveInstance struct {
	svc    *fleet.Service
	server *http.Server
	client *http.Client
	url    string
	walDir string
	served chan struct{} // closed when the server goroutine has returned
	gold   map[string]goldenCell

	hit  bool
	base int64 // fault seed of pass 0
	// warm holds, per pre-warmed batch, each job's state fingerprint by
	// batch index: a cache hit must return exactly the stored run.
	warm [][]string
}

// batchSpecs is the batch a fault seed names: 14 jobs, app x mode.
func batchSpecs(seed int64) []fleet.JobSpec {
	return fleet.SpecMatrix{Profiles: []string{serveProfile}, Seed: seed}.Expand()
}

// newServe boots the service. prewarm is the number of batches posted
// before the first pass; with any, every pass is a cache hit.
func newServe(e env, prewarm int) (*serveInstance, error) {
	walDir, err := os.MkdirTemp(e.tmpRoot, "e2e-wal-")
	if err != nil {
		return nil, err
	}
	s := &serveInstance{walDir: walDir, gold: e.gold, hit: prewarm > 0, served: make(chan struct{})}
	// The workload seed picks the fault seeds; the service sees only
	// the job specs made from them.
	s.base = 1 + rand.New(rand.NewSource(e.seed)).Int63n(1<<40)
	s.svc, err = fleet.NewService(fleet.ServerOptions{
		Workers: serveWorkers, Cache: serveCache, WALPath: filepath.Join(walDir, "results.wal"),
	})
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.server = &http.Server{Handler: s.svc.Handler()}
	go func() {
		s.server.Serve(ln) // returns once close shuts the server down
		close(s.served)
	}()
	s.url = "http://" + ln.Addr().String() + "/v1/jobs"
	s.client = &http.Client{}

	for b := 0; b < prewarm; b++ {
		results, err := s.post(batchSpecs(s.base+int64(b)), spanCtx{})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("pre-warm batch %d: %w", b, err)
		}
		fps := make([]string, len(results))
		for _, r := range results {
			fps[r.Index] = r.StateFingerprint
		}
		s.warm = append(s.warm, fps)
	}
	return s, nil
}

// post sends one JSONL batch and decodes the streamed results.
func (s *serveInstance) post(specs []fleet.JobSpec, sc spanCtx) ([]fleet.JobResult, error) {
	span := sc.start("http.post")
	defer span.end()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, spec := range specs {
		if err := enc.Encode(spec); err != nil {
			return nil, err
		}
	}
	resp, err := s.client.Post(s.url, "application/x-ndjson", &body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %s", resp.Status)
	}
	decode := span.start("decode")
	defer decode.end()
	var results []fleet.JobResult
	seen := make([]bool, len(specs))
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 64<<10), 1<<20)
	for lines.Scan() {
		var r fleet.JobResult
		if err := json.Unmarshal(lines.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("result line: %w", err)
		}
		if r.Index < 0 || r.Index >= len(specs) || seen[r.Index] {
			return nil, fmt.Errorf("result line has index %d of a %d-job batch", r.Index, len(specs))
		}
		seen[r.Index] = true
		results = append(results, r)
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	if len(results) != len(specs) {
		return nil, fmt.Errorf("%d result lines for %d jobs", len(results), len(specs))
	}
	return results, nil
}

// passSeed is the fault seed of pass i. Cold passes never repeat a seed
// within a run (the warm-up takes the one below base); hit passes walk
// the pre-warmed batches round-robin.
func (s *serveInstance) passSeed(i int) (seed int64, warm int) {
	if !s.hit {
		return s.base + int64(i), -1
	}
	if i < 0 {
		i = 0
	}
	warm = i % len(s.warm)
	return s.base + int64(warm), warm
}

func (s *serveInstance) pass(i int, sc spanCtx) passResult {
	seed, warm := s.passSeed(i)
	specs := batchSpecs(seed)
	pr := passResult{cells: len(specs)}
	results, err := s.post(specs, sc)
	if err != nil {
		pr.failed = len(specs)
		pr.firstFail = fmt.Sprintf("batch seed %d: %v", seed, err)
		return pr
	}
	for _, r := range results {
		pr.virtNs += r.KernelNs
		reason := ""
		switch {
		case r.Status != fleet.StatusOK:
			reason = fmt.Sprintf("status %s: %s", r.Status, r.Error)
		case r.Cached != s.hit:
			reason = fmt.Sprintf("cached=%t, want %t", r.Cached, s.hit)
		case s.hit && r.StateFingerprint != s.warm[warm][r.Index]:
			reason = fmt.Sprintf("state fingerprint %s, pre-warm run had %s", r.StateFingerprint, s.warm[warm][r.Index])
		default:
			// Faults are recovered under the protocol layers, so the
			// result must equal the fault-free golden.
			reason = s.gold[r.App+"/"+r.Mode].diff(goldenCell{Bits: r.ResultBits, MemHash: r.MemHash})
		}
		if reason != "" {
			pr.failed++
			if pr.firstFail == "" {
				pr.firstFail = fmt.Sprintf("%s/%s seed %d: %s", r.App, r.Mode, seed, reason)
			}
		}
	}
	return pr
}

// replayCounts returns the protocol counts of one cold pass. The service
// returns fingerprints, not reports, so pass 0's batch is run again in
// process; a hit pass runs no simulation and counts nothing.
func (s *serveInstance) replayCounts() (layerCounts, error) {
	var lc layerCounts
	if s.hit {
		return lc, nil
	}
	for _, spec := range batchSpecs(s.base) {
		rep, _, err := runSpec(spec)
		if err != nil {
			return lc, fmt.Errorf("replaying %s/%s: %w", spec.App, spec.Mode, err)
		}
		lc.addReport(rep)
	}
	return lc, nil
}

// runSpec runs a job spec in process, the way fleet.Executor lowers it.
func runSpec(spec fleet.JobSpec) (core.Report, string, error) {
	cfg, err := spec.BuildConfig()
	if err != nil {
		return core.Report{}, "", err
	}
	app, err := harness.MatrixAppByName(spec.App)
	if err != nil {
		return core.Report{}, "", err
	}
	bits, _, rep, err := app.Run(cfg)
	return rep, bits, err
}

// serveReference pins the fault-free result of every app x mode.
func serveReference() (map[string]goldenCell, error) {
	ref := map[string]goldenCell{}
	for _, spec := range (fleet.SpecMatrix{}).Expand() {
		rep, bits, err := runSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", spec.App, spec.Mode, err)
		}
		ref[spec.App+"/"+spec.Mode] = goldenCell{Bits: bits, MemHash: fmt.Sprintf("%016x", rep.MemHash)}
	}
	return ref, nil
}

func (s *serveInstance) close() error {
	if s.svc == nil {
		return nil
	}
	if s.server != nil {
		s.server.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.svc.Drain()
	s.svc = nil
	return os.RemoveAll(s.walDir)
}

// fleetStats is a snapshot of the service's public counters.
type fleetStats struct {
	cache fleet.CacheStats
	exec  fleet.ExecStats
	wal   fleet.WALStats
}

func (s *serveInstance) stats() fleetStats {
	return fleetStats{s.svc.Cache().Stats(), s.svc.Executor().Stats(), s.svc.WAL().Stats()}
}
