package parade_test

import (
	"fmt"

	"parade"
)

// A complete ParADE program: allocate shared memory, fork the team,
// share a loop, and reduce. The output is deterministic because the
// whole cluster is simulated.
func ExampleRun() {
	cfg := parade.Config{Nodes: 2, ThreadsPerNode: 2, HomeMigration: true}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		a := m.Cluster().AllocF64(100)
		for i := 0; i < 100; i++ {
			a.Set(m, i, float64(i+1))
		}
		m.Parallel(func(tc *parade.Thread) {
			lo, hi := tc.StaticRange(0, 100)
			partial := 0.0
			for i := lo; i < hi; i++ {
				partial += a.Get(tc, i)
			}
			sum := tc.Reduce("sum", parade.OpSum, partial)
			tc.Master(func() { fmt.Printf("sum = %.0f\n", sum) })
		})
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: sum = 5050
}

// The hybrid critical directive: a statically analyzable accumulation
// into a small shared scalar becomes one collective per team round — no
// SDSM lock, no page traffic.
func ExampleThread_Critical() {
	cfg := parade.Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: true}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		counter := m.Cluster().ScalarVar("counter")
		m.Parallel(func(tc *parade.Thread) {
			for i := 0; i < 10; i++ {
				tc.Critical("bump", []*parade.Scalar{counter}, func() {
					counter.Add(tc, 1)
				})
			}
		})
		fmt.Printf("counter = %.0f\n", counter.Get(m))
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: counter = 40
}

// The single directive: one thread initializes a run parameter, and the
// hybrid runtime broadcasts it to every node's replica instead of
// running a lock-plus-barrier sequence.
func ExampleThread_Single() {
	cfg := parade.Config{Nodes: 2, ThreadsPerNode: 2}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		scale := m.Cluster().ScalarVar("scale")
		seen := make([]float64, 4)
		m.Parallel(func(tc *parade.Thread) {
			tc.Single("init", scale, func() { scale.Set(tc, 2.5) })
			tc.Barrier()
			seen[tc.GID()] = scale.Get(tc)
		})
		fmt.Println(seen)
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: [2.5 2.5 2.5 2.5]
}

// Loop schedules are functional options on For: here the dynamic
// schedule (the paper's future-work extension) spreads an imbalanced
// loop across the team chunk by chunk.
func ExampleThread_For() {
	cfg := parade.Config{Nodes: 2, ThreadsPerNode: 1}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		shares := make([]int, 2)
		m.Parallel(func(tc *parade.Thread) {
			// Each iteration carries compute cost, so chunks interleave
			// between the nodes instead of one racing through them all.
			tc.For(0, 100, func(i int) {
				shares[tc.GID()]++
			}, parade.WithName("work"), parade.WithSchedule(parade.Dynamic, 8),
				parade.WithIterCost(50*1000))
		})
		fmt.Printf("both threads got work: %v (total %d)\n",
			shares[0] > 0 && shares[1] > 0, shares[0]+shares[1])
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: both threads got work: true (total 100)
}

// Explicit tasks: spawned work lands on the spawner's node deque, idle
// nodes steal it over the fabric, and Taskwait returns the merged sum
// of every task's result — identical on all threads, bit-for-bit, no
// matter which node executed what.
func ExampleThread_Task() {
	cfg := parade.Config{Nodes: 2, ThreadsPerNode: 1}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		m.Parallel(func(tc *parade.Thread) {
			if tc.GID() == 0 {
				for k := 1; k <= 10; k++ {
					v := float64(k)
					tc.Task(func(ex *parade.Thread) float64 { return v })
				}
			}
			total := tc.Taskwait()
			tc.Master(func() { fmt.Printf("total = %.0f\n", total) })
		})
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: total = 55
}

// Task dependence graphs: depend clauses on a named handle order a
// producer -> transformer -> consumer pipeline without intermediate
// taskwaits. The edges follow spawn order in the spawning context, so
// the graph — and the joined result — is bit-identical across steal
// schedules and fault profiles.
func ExampleWithDepend() {
	cfg := parade.Config{Nodes: 2, ThreadsPerNode: 1}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		a := m.Cluster().AllocF64(8)
		m.Parallel(func(tc *parade.Thread) {
			if tc.GID() == 0 {
				tc.Task(func(ex *parade.Thread) float64 {
					for i := 0; i < 8; i++ {
						a.Set(ex, i, float64(i))
					}
					return 0
				}, parade.WithDepend(parade.Out, parade.DepName("a")),
					parade.WithTaskName("fill"))
				tc.Task(func(ex *parade.Thread) float64 {
					for i := 0; i < 8; i++ {
						a.Set(ex, i, a.Get(ex, i)*10)
					}
					return 0
				}, parade.WithDepend(parade.InOut, parade.DepName("a")))
				tc.Task(func(ex *parade.Thread) float64 {
					s := 0.0
					for i := 0; i < 8; i++ {
						s += a.Get(ex, i)
					}
					return s
				}, parade.WithDepend(parade.In, parade.DepName("a")))
			}
			total := tc.Taskwait()
			tc.Master(func() { fmt.Printf("total = %.0f\n", total) })
		})
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: total = 280
}

// Target offload: the task body is pinned to device node 1 instead of
// being stealable, and the map clause pushes the input pages ahead of
// the body in one batched transfer instead of demand-faulting them.
func ExampleThread_Target() {
	cfg := parade.Config{Nodes: 2, ThreadsPerNode: 1}
	hetero, err := parade.HeteroByName("fasthalf", 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg.Hetero = hetero
	_, err = parade.Run(cfg, func(m *parade.Thread) {
		a := m.Cluster().AllocF64(64)
		for i := 0; i < 64; i++ {
			a.Set(m, i, 1.0)
		}
		m.Parallel(func(tc *parade.Thread) {
			if tc.GID() == 0 {
				tc.Target(1, func(dev *parade.Thread) float64 {
					s := 0.0
					for i := 0; i < 64; i++ {
						s += a.Get(dev, i)
					}
					return s
				}, parade.WithMap(parade.MapTo, a))
			}
			sum := tc.Taskwait()
			tc.Master(func() { fmt.Printf("device sum = %.0f\n", sum) })
		})
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: device sum = 64
}

// Taskloop chunks an iteration space into stealable tasks and joins
// them, returning the summed body results.
func ExampleThread_Taskloop() {
	cfg := parade.Config{Nodes: 2, ThreadsPerNode: 2}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
		m.Parallel(func(tc *parade.Thread) {
			sum := tc.Taskloop(1, 101, func(ex *parade.Thread, i int) float64 {
				return float64(i)
			}, parade.WithGrainsize(10))
			tc.Master(func() { fmt.Printf("sum = %.0f\n", sum) })
		})
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: sum = 5050
}
