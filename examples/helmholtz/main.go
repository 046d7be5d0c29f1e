// Helmholtz: the paper's §6.2 equation-solver workload as a library
// client — a Jacobi iteration with over-relaxation whose convergence
// test is a reduction. Runs the same problem under all three of the
// paper's thread/CPU configurations and prints the Fig. 10-style series.
//
// Run with: go run ./examples/helmholtz
package main

import (
	"fmt"
	"log"
	"math"

	"parade"
)

func main() {
	const (
		grid    = 128
		maxIter = 60
		alpha   = 0.05
	)

	configs := []struct {
		label string
		make  func(nodes int) parade.Config
	}{
		{"1Thread-1CPU", parade.Config1T1C},
		{"1Thread-2CPU", parade.Config1T2C},
		{"2Thread-2CPU", parade.Config2T2C},
	}

	fmt.Printf("Helmholtz %dx%d, %d iterations (cLAN VIA)\n", grid, grid, maxIter)
	fmt.Printf("%-14s %10s %10s %10s %10s\n", "config", "1 node", "2 nodes", "4 nodes", "8 nodes")
	for _, c := range configs {
		fmt.Printf("%-14s", c.label)
		for _, nodes := range []int{1, 2, 4, 8} {
			elapsed, residual := solve(c.make(nodes), grid, maxIter, alpha)
			_ = residual
			fmt.Printf(" %9.4fs", elapsed.Seconds())
		}
		fmt.Println()
	}
}

// solve runs the Jacobi solver on one cluster configuration and returns
// the kernel time and final residual.
func solve(cfg parade.Config, n, maxIter int, alpha float64) (parade.Duration, float64) {
	dx := 2.0 / float64(n-1)
	ax := 1.0 / (dx * dx)
	b := -4.0/(dx*dx) - alpha

	var kernel parade.Duration
	var residual float64
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		c := m.Cluster()
		u := c.AllocF64(n * n)
		uold := c.AllocF64(n * n)
		f := c.AllocF64(n * n)

		var t0 int64
		m.Parallel(func(tc *parade.Thread) {
			// Each float64(...) rounds a product before the add that
			// follows, so no architecture fuses them (the result bits stay
			// the same on every GOARCH).
			tc.For(0, n, func(i int) {
				x := -1.0 + float64(dx*float64(i))
				x2 := 1 - float64(x*x)
				for j := 0; j < n; j++ {
					y := -1.0 + float64(dx*float64(j))
					y2 := 1 - float64(y*y)
					f.Set(tc, i*n+j, float64(-alpha*x2*y2)-float64(2*x2)-float64(2*y2))
				}
			})
			tc.Master(func() { t0 = int64(tc.Now()) })

			errv := 1.0
			for k := 0; k < maxIter && errv > 1e-12; k++ {
				tc.For(0, n, func(i int) {
					for j := 0; j < n; j++ {
						uold.Set(tc, i*n+j, u.Get(tc, i*n+j))
					}
				})
				partial := 0.0
				tc.For(1, n-1, func(i int) {
					for j := 1; j < n-1; j++ {
						r := (float64(ax*(uold.Get(tc, (i-1)*n+j)+uold.Get(tc, (i+1)*n+j)+
							uold.Get(tc, i*n+j-1)+uold.Get(tc, i*n+j+1))) +
							float64(b*uold.Get(tc, i*n+j)) - f.Get(tc, i*n+j)) / b
						u.Set(tc, i*n+j, uold.Get(tc, i*n+j)-r)
						partial += float64(r * r)
					}
				})
				errv = math.Sqrt(tc.Reduce("err", parade.OpSum, partial)) / float64(n*n)
			}
			tc.Master(func() {
				kernel = parade.Duration(int64(tc.Now()) - t0)
				residual = errv
			})
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	return kernel, residual
}
