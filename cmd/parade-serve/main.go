// Command parade-serve runs the fleet sweep service: an HTTP daemon that
// accepts JSONL batches of simulation jobs on POST /v1/jobs, executes
// them on a bounded work-stealing pool, deduplicates by canonical config
// fingerprint against an LRU result cache, and exports Prometheus-style
// metrics on GET /metrics. SIGTERM/SIGINT triggers a graceful drain:
// admission stops (new batches get 503), admitted jobs finish, then the
// process exits. With -wal the service is crash-safe: completed results
// are appended to a checksummed, fsynced JSONL log and replayed into
// the cache on startup, so a killed-and-restarted server serves every
// previously completed cell bit-identical without re-executing it.
// See SERVING.md for the full serving surface and failure modes.
//
// With -replay the command instead acts as its own acceptance harness:
// it replays the chaos and crash scenario matrices through the service
// path and exits non-zero if any cell's HTTP result differs from an
// in-process run, if a repeated batch misses the cache, or if a cache
// hit re-executes (probed via /metrics). "-replay self" boots an
// in-process server first; "-replay http://host:port" targets a running
// one.
//
// With -serve-chaos the command runs the service-chaos harness instead:
// a WAL-backed server is killed mid-batch, restarted, and must recover
// every completed cell bit-identical with zero re-executions; injected
// worker panics must surface as typed per-job results (with retry and
// quarantine) while the server keeps serving; and a deadline_ms job
// must come back canceled instead of hanging a worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parade/internal/fleet"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers  = flag.Int("workers", 2, "worker pool size")
		queue    = flag.Int("queue", 64, "admission queue bound (jobs)")
		cache    = flag.Int("cache", 1024, "result cache capacity (entries)")
		maxBatch = flag.Int("max-batch", 4096, "maximum jobs per request")

		walPath     = flag.String("wal", "", "durable result WAL path: completed results are appended (checksummed, fsynced) and replayed into the cache on startup, so a restart never re-executes a completed cell")
		jobDeadline = flag.Duration("job-deadline", 0, "server-side watchdog per job (0 disables); a job's own deadline_ms can only tighten it")
		maxAttempts = flag.Int("max-attempts", 0, "panic-retry budget per job before its config is quarantined (default 3)")

		serveChaos = flag.Bool("serve-chaos", false, "run the service-chaos harness (kill/restart/panic/deadline) instead of serving; requires -wal")
		chaosCells = flag.Int("chaos-cells", 0, "scenario cells for -serve-chaos (default 24)")
		chaosSeed  = flag.Int64("chaos-seed", 0, "base seed for -serve-chaos (default 1)")

		replay         = flag.String("replay", "", "replay the acceptance matrices through the service path: 'self' boots an in-process server, otherwise a base URL of a running one")
		replayApps     = flag.String("replay-apps", "", "comma-separated app subset for -replay (default: all)")
		replayModes    = flag.String("replay-modes", "", "comma-separated mode subset for -replay (default: hybrid,sdsm)")
		replayProfiles = flag.String("replay-profiles", "", "comma-separated fault-profile subset for -replay ('none' for ideal fabric only)")
		replayCrashes  = flag.String("replay-crashes", "", "comma-separated crash-schedule subset for -replay ('none' for crash-free only)")
		replayNodes    = flag.String("replay-nodes", "", "comma-separated node counts for -replay (default: 4)")
		replayLanes    = flag.String("replay-lanes", "", "comma-separated lane counts for -replay (default: 0)")
		replaySeed     = flag.Int64("replay-seed", 0, "fault-plane seed for -replay (default: 1)")
	)
	flag.Parse()

	opt := fleet.ServerOptions{
		Workers: *workers, Queue: *queue,
		Cache: *cache, MaxBatch: *maxBatch,
		WALPath: *walPath, JobDeadline: *jobDeadline, MaxAttempts: *maxAttempts,
	}

	if *serveChaos {
		if *walPath == "" {
			fmt.Fprintln(os.Stderr, "parade-serve: -serve-chaos requires -wal")
			os.Exit(2)
		}
		sum, err := fleet.RunServeChaos(fleet.ChaosOptions{
			WALPath: *walPath,
			Cells:   *chaosCells,
			Seed:    *chaosSeed,
			Workers: *workers,
			Log:     os.Stderr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-serve: chaos FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chaos OK: %d cells, %d durable at kill, %d recovered bit-identical with %d re-executions, %d panic isolated, %d quarantined, %d canceled by deadline\n",
			sum.Cells, sum.Durable, sum.Recovered, sum.ReExecutions, sum.Panics, sum.Quarantined, sum.Canceled)
		os.Exit(0)
	}

	if *replay != "" {
		ropt := fleet.SpecMatrix{
			Apps:     splitList(*replayApps),
			Modes:    splitList(*replayModes),
			Profiles: splitOrNone(*replayProfiles),
			Crashes:  splitOrNone(*replayCrashes),
			Nodes:    mustInts(*replayNodes, "-replay-nodes"),
			Lanes:    mustInts(*replayLanes, "-replay-lanes"),
			Seed:     *replaySeed,
		}
		os.Exit(runReplay(*replay, opt, ropt))
	}

	svc, err := fleet.NewService(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parade-serve: %v\n", err)
		os.Exit(1)
	}
	server := &http.Server{Addr: *addr, Handler: svc.Handler()}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "parade-serve: %v: draining\n", sig)
		svc.Drain() // stop admission, finish admitted jobs
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		server.Shutdown(ctx)
		close(done)
	}()

	walNote := ""
	if *walPath != "" {
		walNote = fmt.Sprintf(" wal=%s (%d results recovered)", *walPath, svc.Cache().Len())
	}
	fmt.Fprintf(os.Stderr, "parade-serve: listening on %s (workers=%d queue=%d cache=%d%s)\n",
		*addr, *workers, *queue, *cache, walNote)
	if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "parade-serve: %v\n", err)
		os.Exit(1)
	}
	<-done
	fmt.Fprintln(os.Stderr, "parade-serve: drained")
}

// runReplay executes the replay harness and returns the process exit
// code. target "self" boots an in-process server on a loopback port.
func runReplay(target string, opt fleet.ServerOptions, ropt fleet.SpecMatrix) int {
	baseURL := target
	if target == "self" {
		svc, err := fleet.NewService(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-serve: %v\n", err)
			return 1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-serve: replay listen: %v\n", err)
			return 1
		}
		server := &http.Server{Handler: svc.Handler()}
		go server.Serve(ln)
		defer func() {
			svc.Drain()
			server.Close()
		}()
		baseURL = "http://" + ln.Addr().String()
	}
	sum, err := fleet.Replay(baseURL, ropt, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parade-serve: replay FAILED: %v\n", err)
		return 1
	}
	fmt.Printf("replay OK: %d cells identical via service path, %d cache hits on repeat, executions delta %d\n",
		sum.Cells, sum.CacheHits, sum.ExecDelta)
	return 0
}

// splitList parses a comma-separated flag value ("" yields nil).
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitOrNone parses a profile/crash subset flag. The sentinel "none"
// selects only the empty value (ideal fabric / crash-free), since nil
// means "use the replay defaults". Crash schedules contain commas, so
// elements are separated with ';' in these flags.
func splitOrNone(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	if s == "none" {
		return []string{""}
	}
	sep := ","
	if strings.Contains(s, ";") {
		sep = ";"
	}
	var out []string
	for _, part := range strings.Split(s, sep) {
		part = strings.TrimSpace(part)
		if part == "none" {
			part = ""
		}
		out = append(out, part)
	}
	return out
}

// mustInts parses a comma-separated int list, exiting on bad input.
func mustInts(s, flagName string) []int {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-serve: %s: bad value %q\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
