package core

import (
	"testing"

	"parade/internal/sim"
)

func TestForDynamicCoversAllIterations(t *testing.T) {
	cfg := Config{Nodes: 3, ThreadsPerNode: 2}
	counts := make([]int, 500)
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.For(0, 500, func(i int) { counts[i]++ }, WithName("loop"), WithSchedule(Dynamic, 7))
		})
	})
	for i, n := range counts {
		if n != 1 {
			t.Fatalf("iteration %d executed %d times", i, n)
		}
	}
}

func TestForDynamicEmptyRange(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	ran := 0
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.For(5, 5, func(i int) { ran++ }, WithName("empty"), WithSchedule(Dynamic, 4))
		})
	})
	if ran != 0 {
		t.Fatalf("empty loop ran %d iterations", ran)
	}
}

func TestForDynamicRepeatedInstances(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2}
	total := 0
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			for round := 0; round < 4; round++ {
				tc.For(0, 50, func(i int) {
					tc.node.barMu.Lock(tc.p)
					total++
					tc.node.barMu.Unlock(tc.p)
				}, WithName("again"), WithSchedule(Dynamic, 8))
			}
		})
	})
	if total != 200 {
		t.Fatalf("4 rounds of 50 iterations = %d, want 200", total)
	}
}

func TestForDynamicBalancesImbalancedWork(t *testing.T) {
	// A triangular workload: iteration i costs i time units. Under the
	// static schedule the last thread owns the most expensive block;
	// dynamic chunks even it out (the paper's §8 motivation).
	const n = 256
	measure := func(dynamic bool) sim.Duration {
		cfg := Config{Nodes: 4, ThreadsPerNode: 1}
		var start, end sim.Time
		run(t, cfg, func(m *Thread) {
			m.Parallel(func(tc *Thread) {}) // warm the team
			m.Parallel(func(tc *Thread) {
				tc.Master(func() { start = tc.Now() })
				body := func(i int) {
					tc.Compute(sim.Duration(i) * 10 * sim.Microsecond)
				}
				if dynamic {
					tc.For(0, n, body, WithName("tri"), WithSchedule(Dynamic, 4))
				} else {
					tc.For(0, n, body)
				}
				tc.Master(func() { end = tc.Now() })
			})
		})
		return sim.Duration(end - start)
	}
	static, dynamic := measure(false), measure(true)
	if dynamic >= static {
		t.Fatalf("dynamic schedule (%v) not faster than static (%v) on triangular work", dynamic, static)
	}
	// Perfect balance would be ~25% of serial; static ends around the
	// last block's share (~44%). Expect dynamic below 0.8x static.
	if float64(dynamic) > 0.8*float64(static) {
		t.Fatalf("dynamic %v gained too little over static %v", dynamic, static)
	}
}

func TestForDynamicChunkTrafficScalesInversely(t *testing.T) {
	msgs := func(chunk int) int64 {
		cfg := Config{Nodes: 4, ThreadsPerNode: 1}
		rep := run(t, cfg, func(m *Thread) {
			m.Parallel(func(tc *Thread) {
				tc.For(0, 400, func(i int) {}, WithName("traffic"), WithSchedule(Dynamic, chunk))
			})
		})
		return rep.Counters.Messages
	}
	small, large := msgs(2), msgs(50)
	if small <= large {
		t.Fatalf("chunk=2 used %d messages, chunk=50 used %d — smaller chunks must cost more traffic", small, large)
	}
}

func TestForGuidedCoversAllIterations(t *testing.T) {
	cfg := Config{Nodes: 3, ThreadsPerNode: 2}
	counts := make([]int, 1000)
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.For(0, 1000, func(i int) { counts[i]++ }, WithName("g"), WithSchedule(Guided, 4))
		})
	})
	for i, n := range counts {
		if n != 1 {
			t.Fatalf("iteration %d ran %d times", i, n)
		}
	}
}

func TestForGuidedFewerRequestsThanDynamic(t *testing.T) {
	msgs := func(guided bool) int64 {
		cfg := Config{Nodes: 4, ThreadsPerNode: 1}
		rep := run(t, cfg, func(m *Thread) {
			m.Parallel(func(tc *Thread) {
				if guided {
					tc.For(0, 2000, func(i int) {}, WithName("s"), WithSchedule(Guided, 4))
				} else {
					tc.For(0, 2000, func(i int) {}, WithName("s"), WithSchedule(Dynamic, 4))
				}
			})
		})
		return rep.Counters.Messages
	}
	g, d := msgs(true), msgs(false)
	if g >= d {
		t.Fatalf("guided used %d messages, dynamic %d — guided must use fewer", g, d)
	}
}
