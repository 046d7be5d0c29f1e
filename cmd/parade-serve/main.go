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
// See SERVING.md for the full serving surface and failure modes;
// parade-bench -matrix ... -via checks a running daemon against the
// acceptance matrices.
//
// With -serve-chaos the command runs the service-chaos harness instead:
// a WAL-backed server is killed mid-batch, restarted, and must recover
// every completed cell bit-identical with zero re-executions; a panic
// injected inside a simulation must surface as a typed per-job result
// and quarantine its config while the server keeps serving; and a
// deadline_ms job must come back canceled instead of hanging a worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
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

		serveChaos = flag.Bool("serve-chaos", false, "run the service-chaos harness (kill/restart/panic/deadline) instead of serving; requires -wal")
		chaosCells = flag.Int("chaos-cells", 0, "scenario cells for -serve-chaos (default 24)")
		chaosSeed  = flag.Int64("chaos-seed", 0, "base seed for -serve-chaos (default 1)")
	)
	flag.Parse()

	opt := fleet.ServerOptions{
		Workers: *workers, Queue: *queue,
		Cache: *cache, MaxBatch: *maxBatch,
		WALPath: *walPath, JobDeadline: *jobDeadline,
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
