// Autotune: the paper's §8 adaptive-configuration idea in action. The
// same Helmholtz solve is measured under every thread/CPU configuration
// and node count; the tuner picks the fastest. Because communication
// costs grow with the cluster while per-node work shrinks, the best
// configuration depends on the problem size — exactly the paper's
// observation that "more processors do not always give better
// performance".
//
// Run with: go run ./examples/autotune
package main

import (
	"fmt"
	"log"
	"math"

	"parade"
)

func main() {
	for _, grid := range []int{48, 160} {
		fmt.Printf("Helmholtz %dx%d, 40 iterations:\n", grid, grid)
		best := tune(grid)
		fmt.Printf("  -> best: %s\n\n", best)
	}
}

// tune sweeps configurations and returns the fastest one's description.
func tune(grid int) string {
	type trial struct {
		label string
		time  parade.Duration
	}
	var best trial
	for _, shape := range []struct {
		label    string
		tpn, cpu int
	}{
		{"1Thread-1CPU", 1, 1},
		{"1Thread-2CPU", 1, 2},
		{"2Thread-2CPU", 2, 2},
	} {
		for _, nodes := range []int{1, 2, 4, 8} {
			cfg := parade.Config{
				Nodes: nodes, ThreadsPerNode: shape.tpn, CPUsPerNode: shape.cpu,
				HomeMigration: true,
			}
			elapsed := solve(cfg, grid)
			label := fmt.Sprintf("%s x %d nodes", shape.label, nodes)
			fmt.Printf("  %-28s %9.4fs\n", label, elapsed.Seconds())
			if best.label == "" || elapsed < best.time {
				best = trial{label, elapsed}
			}
		}
	}
	return fmt.Sprintf("%s (%.4fs)", best.label, best.time.Seconds())
}

// solve is a compact Jacobi solve measuring the iteration loop.
func solve(cfg parade.Config, n int) parade.Duration {
	var kernel parade.Duration
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		c := m.Cluster()
		u := c.AllocF64(n * n)
		uold := c.AllocF64(n * n)
		var t0 int64
		m.Parallel(func(tc *parade.Thread) {
			tc.For(0, n, func(i int) {
				for j := 0; j < n; j++ {
					u.Set(tc, i*n+j, float64((i*j)%7))
				}
			})
			tc.Master(func() { t0 = int64(tc.Now()) })
			for k := 0; k < 40; k++ {
				tc.For(0, n, func(i int) {
					for j := 0; j < n; j++ {
						uold.Set(tc, i*n+j, u.Get(tc, i*n+j))
					}
				})
				partial := 0.0
				tc.For(1, n-1, func(i int) {
					for j := 1; j < n-1; j++ {
						// Each float64(...) rounds a product before the add that
						// follows, so no architecture fuses them (the result bits
						// stay the same on every GOARCH).
						v := float64(0.25 * (uold.Get(tc, (i-1)*n+j) + uold.Get(tc, (i+1)*n+j) +
							uold.Get(tc, i*n+j-1) + uold.Get(tc, i*n+j+1)))
						u.Set(tc, i*n+j, v)
						d := v - uold.Get(tc, i*n+j)
						partial += float64(d * d)
					}
				})
				_ = math.Sqrt(tc.Reduce("err", parade.OpSum, partial))
			}
			tc.Master(func() { kernel = parade.Duration(int64(tc.Now()) - t0) })
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	return kernel
}
