// Command parade-bench regenerates the paper's evaluation figures
// (Figs. 6-11) as text tables. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
//
// With -regress it instead runs the substrate benchmark suites (event
// kernel, diff engine, directive microbenchmarks, Fig 6/7 sweeps) and
// writes a JSON report; see scripts/bench.sh.
//
// With -matrix chaos|crash|policy it runs one of the acceptance matrices
// (internal/harness.RunMatrix): the app kernels under every fault
// profile, under crash/restart schedules at barrier points, or across
// hlrc protocol policies, each cell checked against its group's
// baseline. The -matrix-* flags select the cells; -matrix-out writes the
// matrix as JSONL.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

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

// writeMetrics dumps the collected per-run metrics as one JSON document.
func writeMetrics(path string, points []metricsPoint) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Schema string         `json:"schema"`
		Points []metricsPoint `json:"points"`
	}{Schema: "parade-bench-metrics/v1", Points: points})
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

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 6..11 or 'all'")
	nodesFlag := flag.String("nodes", "1,2,4,8", "comma-separated node counts")
	scale := flag.String("scale", "bench", "workload scale for figures: bench or paper; 'weak' runs the weak-scaling lane sweep instead")
	scaleLanes := flag.Int("scale-lanes", 0, "weak-scaling: lane worker count for the parallel series (0 = GOMAXPROCS)")
	scaleRounds := flag.Int("scale-rounds", 40, "weak-scaling: compute+barrier rounds per node")
	regress := flag.Bool("regress", false, "run benchmark suites and emit a JSON report instead of figures")
	out := flag.String("out", "-", "regress: report output path ('-' for stdout)")
	baseline := flag.String("baseline", "", "regress: prior report (JSON) or raw 'go test -bench' output to compare against")
	benchtime := flag.String("benchtime", "1s", "regress: -benchtime passed to go test")
	maxRegress := flag.Float64("max-regress", 0, "regress: exit non-zero if any benchmark slows more than this factor vs baseline (0 disables)")
	metricsOut := flag.String("metrics", "", "write per-figure observability metrics JSON to this file ('-' for stdout)")
	matrix := flag.String("matrix", "", "run an acceptance matrix instead of figures: chaos, crash or policy")
	matrixNodes := flag.Int("matrix-nodes", 4, "matrix: cluster size")
	matrixLanes := flag.Int("matrix-lanes", 0, "matrix: event-lane workers (0 = legacy kernel)")
	matrixSeed := flag.Int64("matrix-seed", 0, "matrix chaos: fault-plane seed (0 = the default, 1)")
	matrixApps := flag.String("matrix-apps", "", "matrix: comma-separated subset of helmholtz,ep,cg,md,quad,taskdep,lockmix (empty = all)")
	matrixModes := flag.String("matrix-modes", "", "matrix policy: comma-separated subset of hybrid,sdsm (empty = both)")
	matrixFabrics := flag.String("matrix-fabrics", "", "matrix policy: comma-separated subset of via,tcp (empty = both)")
	matrixProfiles := flag.String("matrix-profiles", "", "matrix chaos: comma-separated subset of drop,dup,reorder,straggler,chaos (empty = all)")
	matrixPolicy := flag.String("matrix-policy", "", "matrix chaos, crash: hlrc policy for every run (empty = legacy); matrix policy: comma-separated subset to compare (empty = all)")
	matrixOut := flag.String("matrix-out", "", "matrix: write the runs as JSONL to this file ('-' for stdout)")
	flag.Parse()

	if *matrix != "" {
		rep, err := harness.RunMatrix(*matrix, harness.MatrixOptions{
			Nodes: *matrixNodes, Lanes: *matrixLanes, Seed: *matrixSeed,
			Apps: splitList(*matrixApps), Modes: splitList(*matrixModes), Fabrics: splitList(*matrixFabrics),
			Profiles: splitList(*matrixProfiles), Policies: splitList(*matrixPolicy),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if *matrixOut != "" {
			w := os.Stdout
			if *matrixOut != "-" {
				f, err := os.Create(*matrixOut)
				if err != nil {
					fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				w = f
			}
			if err := rep.WriteJSONL(w); err != nil {
				fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	if *regress {
		n, err := runRegress(*out, *baseline, *benchtime, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "parade-bench: %d benchmark(s) regressed\n", n)
			os.Exit(1)
		}
		return
	}

	if *scale == "weak" {
		// The sweep's default node list is the 8->1024 weak-scaling ladder;
		// an explicit -nodes overrides it (the figure default would not
		// exercise lane parallelism).
		list := "8,16,32,64,128,256,512,1024"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "nodes" {
				list = *nodesFlag
			}
		})
		nodes, err := parseNodes(list)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(2)
		}
		if err := runScaleSweep(nodes, *scaleLanes, *scaleRounds, *out); err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
		os.Exit(2)
	}

	ids := []int{6, 7, 8, 9, 10, 11}
	if *fig != "all" {
		id, err := strconv.Atoi(*fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: bad figure %q\n", *fig)
			os.Exit(2)
		}
		ids = []int{id}
	}
	var points []metricsPoint
	for _, id := range ids {
		var obsFn harness.ObsFunc
		if *metricsOut != "" {
			figID := fmt.Sprintf("Fig%d", id)
			obsFn = func(series string, n int, m *obs.Metrics) {
				var buf bytes.Buffer
				if err := m.WriteJSON(&buf); err != nil {
					fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
					os.Exit(1)
				}
				points = append(points, metricsPoint{
					Figure: figID, Series: series, Nodes: n,
					Metrics: json.RawMessage(buf.Bytes()),
				})
			}
		}
		f, err := harness.ByIDObserved(id, nodes, harness.Scale(*scale), obsFn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(f.Render())
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, points); err != nil {
			fmt.Fprintf(os.Stderr, "parade-bench: %v\n", err)
			os.Exit(1)
		}
	}
}
