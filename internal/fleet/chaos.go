package fleet

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"parade/internal/core"
)

// ChaosOptions sizes a service-chaos run.
type ChaosOptions struct {
	// WALPath is the durable result store both server generations share
	// (required).
	WALPath string
	// Cells is the number of scenario cells in the sweep (default 24;
	// the nightly soak passes thousands). Cells beyond the base
	// app x mode matrix are generated by walking the seed dimension, so
	// every cell is a distinct simulation.
	Cells int
	// Seed is the base fault-plane seed (default 1).
	Seed int64
	// Workers sizes the server pool (default 2).
	Workers int
	// Log receives progress lines; nil discards.
	Log io.Writer
}

// ChaosSummary reports what a service-chaos run proved.
type ChaosSummary struct {
	Cells        int   // scenario cells in the sweep
	Durable      int   // results in the WAL when the server was killed
	Recovered    int   // durable cells served from cache after restart
	ReExecutions int64 // executions during the recovery resubmit (must be 0)
	Mismatches   int   // recovered/completed results differing from reference
	Panics       int   // injected-panic jobs answered with StatusPanic
	Quarantined  int   // quarantine refusals of the panicked config
	Canceled     int   // deadline_ms jobs answered with StatusCanceled
}

// RunServeChaos is the service-chaos harness: it proves the crash-safety
// contract end to end, over real HTTP, against real simulations.
//
//  1. Reference: every cell runs in process (harness.Cell.Run).
//  2. Crash: a WAL-backed server is killed (Service.Kill — the
//     in-process SIGKILL analogue: queued jobs discarded, in-flight
//     finished, WAL closed) in the middle of the full batch.
//  3. Recovery: a second server opens the same WAL. Every cell that was
//     durable at the kill is resubmitted first and must come back
//     cached=true, bit-identical to the reference
//     (result_bits/mem_hash/state_fingerprint), with the execution
//     counter still at zero — completed cells are never re-executed.
//     The full batch then completes the sweep; every result must match
//     the reference.
//  4. Panic isolation: a panic injected inside the simulation (a
//     cancellation hook the kernel polls on a process goroutine) must
//     surface as a typed StatusPanic result, quarantine the config, and
//     leave the server serving other jobs.
//  5. Deadline: a job with deadline_ms=1 on a large cell must come back
//     StatusCanceled, not hang a worker.
//
// A non-nil error reports the first violated assertion.
func RunServeChaos(opt ChaosOptions) (ChaosSummary, error) {
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}
	if opt.WALPath == "" {
		return ChaosSummary{}, fmt.Errorf("chaos: WALPath is required")
	}
	if opt.Cells <= 0 {
		opt.Cells = 24
	}
	if opt.Seed <= 0 {
		opt.Seed = 1
	}
	if opt.Workers <= 0 {
		opt.Workers = 2
	}

	// The base matrix uses the two cheapest apps in both execution modes;
	// the seed dimension stretches it to any cell count with every cell a
	// distinct simulation (seed is part of the canonical config).
	base := SpecMatrix{
		Apps:  []string{"ep", "quad"},
		Modes: []string{"hybrid", "sdsm"},
		Nodes: []int{2},
		Seed:  opt.Seed,
	}.Expand()
	specs := make([]JobSpec, 0, opt.Cells)
	for round := int64(0); len(specs) < opt.Cells; round++ {
		for _, spec := range base {
			if len(specs) >= opt.Cells {
				break
			}
			spec.Seed = opt.Seed + round
			spec.ID = fmt.Sprintf("chaos-%d", len(specs))
			specs = append(specs, spec)
		}
	}
	sum := ChaosSummary{Cells: len(specs)}
	// Seeds above every sweep cell, for the injection phases (these cells
	// must not be in the WAL).
	freshSeed := opt.Seed + int64(len(specs))

	// Phase 1: in-process reference, the harness's own run of each cell.
	ref := make(map[uint64]JobResult, len(specs))
	for _, spec := range specs {
		run, err := spec.Run()
		if err != nil {
			return sum, fmt.Errorf("chaos: reference run %s: %w", spec.Canonical(), err)
		}
		ref[spec.Fingerprint()] = runResult(run)
	}
	logf("chaos: reference complete (%d cells)", len(specs))
	// Backoff jitter is deterministic per seed, like Replay's.
	rng := rand.New(rand.NewSource(opt.Seed + 0x9e3779b9))
	post := func(url string, specs []JobSpec) ([]JobResult, error) {
		return postJobs(url, specs, rng, logf)
	}

	// Phase 2: WAL-backed server killed mid-batch.
	svcA, err := NewService(ServerOptions{Workers: opt.Workers, Queue: len(specs) + 16, WALPath: opt.WALPath})
	if err != nil {
		return sum, fmt.Errorf("chaos: starting server A: %w", err)
	}
	urlA, stopA, err := ServeLoopback(svcA)
	if err != nil {
		return sum, err
	}
	clientDone := make(chan error, 1)
	var killedResults []JobResult
	go func() {
		results, err := post(urlA, specs)
		killedResults = results
		clientDone <- err
	}()
	// Kill once roughly a quarter of the sweep is durable (or the batch
	// finishes first on a small matrix).
	killAt := int64(len(specs) / 4)
	if killAt < 1 {
		killAt = 1
	}
	var clientErr error
	killed, received := false, false
	for !killed {
		select {
		case clientErr = <-clientDone:
			killed, received = true, true // batch beat the killer; the WAL holds everything
		default:
			if svcA.WAL().Stats().Appends >= killAt {
				killed = true
			} else {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	svcA.Kill()
	if !received {
		clientErr = <-clientDone
	}
	stopA()
	if clientErr != nil {
		return sum, fmt.Errorf("chaos: batch against killed server: %w", clientErr)
	}
	// The killed server's response stream must still be complete: every
	// line present, dropped cells typed as canceled.
	dropped := 0
	for _, res := range killedResults {
		if res.Status == StatusCanceled {
			dropped++
		}
	}
	logf("chaos: server A killed mid-batch (%d results dropped as canceled)", dropped)

	// What actually became durable (read the WAL the way a restart will).
	probe, records, _, err := OpenWAL(opt.WALPath)
	if err != nil {
		return sum, fmt.Errorf("chaos: reading WAL after kill: %w", err)
	}
	probe.Close()
	durable := map[uint64]bool{}
	for _, rec := range records {
		durable[rec.FP] = true
	}
	sum.Durable = len(durable)
	if sum.Durable == 0 {
		return sum, fmt.Errorf("chaos: nothing durable at kill time (killAt=%d)", killAt)
	}

	// Phase 3: restart and recover.
	svcB, err := NewService(ServerOptions{Workers: opt.Workers, Queue: len(specs) + 16, WALPath: opt.WALPath})
	if err != nil {
		return sum, fmt.Errorf("chaos: restarting server over the WAL: %w", err)
	}
	urlB, stopB, err := ServeLoopback(svcB)
	if err != nil {
		return sum, err
	}
	defer func() {
		svcB.Drain()
		stopB()
	}()

	var recoverSpecs []JobSpec
	for _, spec := range specs {
		if durable[spec.Fingerprint()] {
			recoverSpecs = append(recoverSpecs, spec)
		}
	}
	results, err := post(urlB, recoverSpecs)
	if err != nil {
		return sum, fmt.Errorf("chaos: recovery resubmit: %w", err)
	}
	for i, res := range results {
		fp := recoverSpecs[i].Fingerprint()
		if !res.Cached {
			sum.Mismatches++
			logf("chaos: MISMATCH %s not served from recovered cache", recoverSpecs[i].Canonical())
		}
		if diff := diffResults(ref[fp], res); diff != "" {
			sum.Mismatches++
			logf("chaos: MISMATCH recovered %s: %s", recoverSpecs[i].Canonical(), diff)
		}
	}
	sum.Recovered = len(results) - sum.Mismatches
	sum.ReExecutions = svcB.Executor().Executions()
	if sum.ReExecutions != 0 {
		return sum, fmt.Errorf("chaos: recovery resubmit re-executed %d completed cells (want 0)", sum.ReExecutions)
	}
	if sum.Mismatches > 0 {
		return sum, fmt.Errorf("chaos: %d recovered cells differ from reference", sum.Mismatches)
	}
	logf("chaos: restart recovered %d durable cells, bit-identical, 0 re-executions", sum.Durable)

	// The full sweep finishes on the restarted server; every cell must
	// match the reference.
	results, err = post(urlB, specs)
	if err != nil {
		return sum, fmt.Errorf("chaos: completing sweep after restart: %w", err)
	}
	for i, res := range results {
		if diff := diffResults(ref[specs[i].Fingerprint()], res); diff != "" {
			sum.Mismatches++
			logf("chaos: MISMATCH completed %s: %s", specs[i].Canonical(), diff)
		}
	}
	if sum.Mismatches > 0 {
		return sum, fmt.Errorf("chaos: %d cells differ from reference after restart", sum.Mismatches)
	}
	logf("chaos: sweep completed on restarted server, all %d cells identical to reference", len(specs))

	// Phase 4: panic injection. The marked cell runs with a cancellation
	// hook that panics, so the panic is raised inside the simulation, on
	// the path a real one takes; the server must answer a typed panic
	// result, quarantine the config, and keep serving everything else.
	// A cg cell runs for many kernel poll intervals (DefaultCancelEvery
	// events), so the hook is sure to be polled.
	panicSpec := JobSpec{ID: "chaos-panic", App: "cg", Mode: "hybrid", Nodes: 2, Seed: freshSeed}
	panicFP := panicSpec.Fingerprint()
	svcB.Executor().BeforeRun = func(spec JobSpec, cfg *core.Config) {
		if spec.Fingerprint() == panicFP {
			cfg.Cancel = func() error { panic("chaos: injected fault") }
		}
	}
	results, err = post(urlB, []JobSpec{panicSpec, specs[0]})
	if err != nil {
		return sum, fmt.Errorf("chaos: panic-injection batch: %w", err)
	}
	if got := results[0].Status; got != StatusPanic {
		return sum, fmt.Errorf("chaos: injected panic produced status %q (%s), want %q", got, results[0].Error, StatusPanic)
	}
	if !strings.Contains(results[0].Error, "sim: process") || !strings.Contains(results[0].Error, "injected fault") {
		return sum, fmt.Errorf("chaos: panic result does not name the simulated process and value: %s", results[0].Error)
	}
	if results[1].Status != StatusOK {
		return sum, fmt.Errorf("chaos: server stopped serving after an injected panic: %q", results[1].Status)
	}
	sum.Panics++
	results, err = post(urlB, []JobSpec{panicSpec})
	if err != nil {
		return sum, fmt.Errorf("chaos: quarantine resubmit: %w", err)
	}
	if results[0].Status != StatusQuarantined {
		return sum, fmt.Errorf("chaos: poisoned config resubmit got %q, want %q", results[0].Status, StatusQuarantined)
	}
	sum.Quarantined++
	svcB.Executor().BeforeRun = nil
	logf("chaos: injected panic isolated (typed result, quarantined; server kept serving)")

	// Phase 5: a 1ms deadline on a deliberately large cell cancels
	// instead of hanging a worker. (nodes=8 cg runs far longer than 1ms.)
	slow := JobSpec{ID: "chaos-deadline", App: "cg", Mode: "sdsm", Nodes: 8, Seed: freshSeed, DeadlineMS: 1}
	results, err = post(urlB, []JobSpec{slow})
	if err != nil {
		return sum, fmt.Errorf("chaos: deadline batch: %w", err)
	}
	if results[0].Status != StatusCanceled {
		return sum, fmt.Errorf("chaos: deadline_ms=1 job got status %q (%s), want %q",
			results[0].Status, results[0].Error, StatusCanceled)
	}
	sum.Canceled++
	logf("chaos: deadline_ms=1 cell canceled with typed result (%s)", results[0].Error)
	return sum, nil
}
