// Hybrid-vs-SDSM: the paper's central comparison as a library client.
// The same program — threads contending on a critical section around a
// small shared counter, a single-initialized parameter, and a reduction
// — runs once under the ParADE hybrid runtime and once under the
// conventional lock-based SDSM lowering (KDSM). The printed counters
// show exactly what the hybrid model eliminates: lock round-trips, page
// fetches, twins and diffs on the synchronization path.
//
// Run with: go run ./examples/hybrid-vs-sdsm
package main

import (
	"fmt"
	"log"

	"parade"
)

func main() {
	const (
		nodes = 4
		reps  = 50
	)
	for _, mode := range []parade.Mode{parade.Hybrid, parade.SDSM} {
		cfg := parade.Config{
			Nodes:          nodes,
			ThreadsPerNode: 2,
			Mode:           mode,
			HomeMigration:  mode == parade.Hybrid,
		}
		var final, reduced float64
		report, err := parade.Run(cfg, func(m *parade.Thread) {
			counter := m.Cluster().ScalarVar("counter")
			scale := m.Cluster().ScalarVar("scale")
			m.Parallel(func(tc *parade.Thread) {
				// A single initializes the run parameter once; in hybrid
				// mode the value travels by broadcast, not by barrier.
				tc.Single("init-scale", scale, func() { scale.Set(tc, 2.0) })
				tc.Barrier()

				// The statically analyzable critical block of Fig. 2.
				for i := 0; i < reps; i++ {
					tc.Critical("bump", []*parade.Scalar{counter}, func() {
						counter.Add(tc, scale.Get(tc))
					})
				}

				// And a reduction clause.
				r := tc.Reduce("check", parade.OpSum, 1.0)
				tc.Master(func() { reduced = r })
			})
			m.Parallel(func(tc *parade.Thread) {}) // settle SDSM diffs
			final = counter.Get(m)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s counter=%6.0f threads=%2.0f time=%-12v\n",
			mode.String()+":", final, reduced, report.Time)
		fmt.Printf("               %s\n\n", report.Counters.String())
	}
	fmt.Println("Note how the hybrid run performs zero lock_requests and zero")
	fmt.Println("page_fetches_served on the synchronization path, while the SDSM run")
	fmt.Println("pays a lock round-trip plus invalidation and page fetch per")
	fmt.Println("critical execution — the effect behind the paper's Figs. 6-7.")
}
