// Command parade-micro runs the EPCC-style synchronization
// microbenchmarks (paper §6.1) for every directive, under both the
// ParADE hybrid runtime and the conventional KDSM baseline, over a node
// sweep. Figures 6 and 7 are the critical and single rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parade/internal/harness"
	"parade/internal/microbench"
)

func main() {
	nodesFlag := flag.String("nodes", "1,2,4,8", "comma-separated node counts")
	reps := flag.Int("reps", 100, "repetitions per measurement")
	tpn := flag.Int("tpn", 1, "computational threads per node")
	flag.Parse()

	var nodes []int
	for _, s := range strings.Split(*nodesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "parade-micro: bad node count %q\n", s)
			os.Exit(2)
		}
		nodes = append(nodes, n)
	}

	fmt.Printf("Directive overheads in microseconds per execution (%d reps, %d thread(s)/node, cLAN VIA)\n\n",
		*reps, *tpn)
	fmt.Printf("%-10s %-8s", "directive", "system")
	for _, n := range nodes {
		fmt.Printf("%12s", fmt.Sprintf("%d nodes", n))
	}
	fmt.Println()

	for _, name := range microbench.Directives() {
		bench, err := microbench.ByName(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parade-micro: %v\n", err)
			os.Exit(1)
		}
		for _, sys := range []struct{ label, mode string }{{"ParADE", "hybrid"}, {"KDSM", "sdsm"}} {
			fmt.Printf("%-10s %-8s", name, sys.label)
			for _, n := range nodes {
				cfg, err := harness.MatrixModeConfig(sys.mode, n, *tpn)
				if err != nil {
					fmt.Fprintf(os.Stderr, "parade-micro: %v\n", err)
					os.Exit(1)
				}
				r, err := bench(cfg, *reps)
				if err != nil {
					fmt.Fprintf(os.Stderr, "parade-micro: %s/%s: %v\n", name, sys.label, err)
					os.Exit(1)
				}
				fmt.Printf("%12.3f", r.PerOp.Micros())
			}
			fmt.Println()
		}
	}
}
