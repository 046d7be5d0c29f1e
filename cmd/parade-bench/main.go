// Command parade-bench regenerates the paper's evaluation figures
// (Figs. 6-11) as text tables. Every point of a figure is a harness.Cell
// (-scale picks the cells' problem size), run by the same cell runner as
// the matrices and the fleet service. See EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
// With -matrix chaos|crash|policy it runs one of the acceptance matrices
// (internal/harness.RunMatrix): the app kernels under every fault
// profile, under crash/restart schedules at barrier points, or across
// hlrc protocol policies, each cell checked against its group's
// baseline. The -matrix-* flags select the cells; -matrix-out writes the
// matrix as JSONL. With -via, a matrix that passed is then served
// through the fleet service (internal/fleet.Replay): every completed run
// is posted twice and must come back identical to the matrix's own run,
// all cached on the repeat, with no new execution. "-via self" boots an
// in-process service; "-via http://host:port" targets a running
// parade-serve.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"parade/internal/fleet"
	"parade/internal/harness"
	"parade/internal/obs"
)

// metricsPoint is one cluster run's observability summary in the
// -metrics report: which figure, series, and node count produced it.
type metricsPoint struct {
	Figure  string          `json:"figure"`
	Series  string          `json:"series"`
	Nodes   int             `json:"nodes"`
	Metrics json.RawMessage `json:"metrics"`
}

// writeMetrics dumps the collected per-run metrics as one JSON document
// to path ('-' for stdout).
func writeMetrics(path string, stdout io.Writer, points []metricsPoint) error {
	w, closeOut, err := openOut(path, stdout)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err = enc.Encode(struct {
		Schema string         `json:"schema"`
		Points []metricsPoint `json:"points"`
	}{Schema: "parade-bench-metrics/v1", Points: points})
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return err
}

// splitList parses a comma-separated flag value; an empty value is nil.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseNodes parses the -nodes list of positive node counts.
func parseNodes(s string) ([]int, error) {
	var nodes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parade-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: 6..11 or 'all'")
	nodesFlag := fs.String("nodes", "1,2,4,8", "comma-separated node counts")
	scale := fs.String("scale", "bench", "problem size of Figs. 8-11: bench or paper")
	metricsOut := fs.String("metrics", "", "write per-figure observability metrics JSON to this file ('-' for stdout)")
	matrix := fs.String("matrix", "", "run an acceptance matrix instead of figures: chaos, crash or policy")
	matrixNodes := fs.Int("matrix-nodes", 4, "matrix: cluster size")
	matrixSeed := fs.Int64("matrix-seed", 0, "matrix chaos: fault-plane seed (0 = the default, 1)")
	matrixApps := fs.String("matrix-apps", "", "matrix: comma-separated subset of helmholtz,ep,cg,md,quad,taskdep,lockmix (empty = all)")
	matrixModes := fs.String("matrix-modes", "", "matrix policy: comma-separated subset of hybrid,sdsm (empty = both)")
	matrixFabrics := fs.String("matrix-fabrics", "", "matrix policy: comma-separated subset of via,tcp (empty = both)")
	matrixProfiles := fs.String("matrix-profiles", "", "matrix chaos: comma-separated subset of drop,dup,reorder,straggler,chaos (empty = all)")
	matrixPolicy := fs.String("matrix-policy", "", "matrix chaos, crash: hlrc policy for every run (empty = legacy); matrix policy: comma-separated subset to compare (empty = all)")
	matrixOut := fs.String("matrix-out", "", "matrix: write the runs as JSONL to this file ('-' for stdout)")
	via := fs.String("via", "", "matrix: then serve every completed run through the fleet service and require identical, cached-on-repeat results: 'self' boots an in-process service, otherwise the base URL of a running parade-serve")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "parade-bench: %v\n", err)
		return 1
	}

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		// Every return path completes the capture, which an early exit
		// would leave truncated.
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "parade-bench: %v\n", err)
			}
		}()
	}

	if *via != "" && *matrix == "" {
		fmt.Fprintln(stderr, "parade-bench: -via needs -matrix")
		return 2
	}
	if *matrix != "" {
		rep, err := harness.RunMatrix(*matrix, harness.MatrixOptions{
			Nodes: *matrixNodes, Seed: *matrixSeed,
			Apps: splitList(*matrixApps), Modes: splitList(*matrixModes), Fabrics: splitList(*matrixFabrics),
			Profiles: splitList(*matrixProfiles), Policies: splitList(*matrixPolicy),
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, rep.Render())
		if *matrixOut != "" {
			w, closeOut, err := openOut(*matrixOut, stdout)
			if err != nil {
				return fail(err)
			}
			err = rep.WriteJSONL(w)
			if cerr := closeOut(); err == nil {
				err = cerr
			}
			if err != nil {
				return fail(err)
			}
		}
		if !rep.OK() {
			return 1
		}
		if *via != "" {
			sum, err := serveMatrix(*via, rep, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "parade-bench: replay FAILED: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "replay OK: %d cells identical via service path, %d cache hits on repeat, executions delta %d\n",
				sum.Cells, sum.CacheHits, sum.ExecDelta)
		}
		return 0
	}

	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		fmt.Fprintf(stderr, "parade-bench: %v\n", err)
		return 2
	}

	ids := []int{6, 7, 8, 9, 10, 11}
	if *fig != "all" {
		id, err := strconv.Atoi(*fig)
		if err != nil {
			fmt.Fprintf(stderr, "parade-bench: bad figure %q\n", *fig)
			return 2
		}
		ids = []int{id}
	}
	// Check every requested figure's scale before the first one prints.
	for _, id := range ids {
		if _, err := harness.ByID(id, nil, *scale); err != nil {
			return fail(err)
		}
	}
	var points []metricsPoint
	var obsErr error
	for _, id := range ids {
		var obsFn harness.ObsFunc
		if *metricsOut != "" {
			figID := fmt.Sprintf("Fig%d", id)
			obsFn = func(series string, n int, m *obs.Metrics) {
				var buf bytes.Buffer
				if err := m.WriteJSON(&buf); err != nil && obsErr == nil {
					obsErr = err
				}
				points = append(points, metricsPoint{
					Figure: figID, Series: series, Nodes: n,
					Metrics: json.RawMessage(buf.Bytes()),
				})
			}
		}
		f, err := harness.ByIDObserved(id, nodes, *scale, obsFn)
		if err == nil {
			err = obsErr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, f.Render())
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, stdout, points); err != nil {
			return fail(err)
		}
	}
	return 0
}

// openOut opens path for writing, or returns stdout for "-"; the
// returned close is a no-op for stdout.
func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// serveMatrix replays a passed matrix through the fleet service at
// target: "self" boots an in-process service whose queue admits the
// whole batch, anything else is a running service's base URL.
func serveMatrix(target string, rep harness.MatrixReport, log io.Writer) (fleet.ReplaySummary, error) {
	if target != "self" {
		return fleet.Replay(target, rep, log)
	}
	svc, err := fleet.NewService(fleet.ServerOptions{Queue: len(rep.Runs)})
	if err != nil {
		return fleet.ReplaySummary{}, err
	}
	url, stop, err := fleet.ServeLoopback(svc)
	if err != nil {
		return fleet.ReplaySummary{}, err
	}
	defer func() {
		svc.Drain()
		stop()
	}()
	return fleet.Replay(url, rep, log)
}
