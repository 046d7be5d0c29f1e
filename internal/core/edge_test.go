package core

import (
	"testing"

	"parade/internal/netsim"
	"parade/internal/sim"
)

// Edge cases and less-travelled paths of the runtime.

func TestSingleNodeSingleThread(t *testing.T) {
	cfg := Config{Nodes: 1, ThreadsPerNode: 1}
	ran := false
	rep := run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.NumThreads() != 1 || tc.GID() != 0 {
				t.Errorf("identity wrong: %v", tc)
			}
			ran = true
		})
	})
	if !ran {
		t.Fatal("region did not run")
	}
	if rep.Counters.Messages != 0 {
		t.Fatalf("1x1 cluster sent %d messages", rep.Counters.Messages)
	}
}

func TestI64ArrayAcrossNodes(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	var got int64
	run(t, cfg, func(m *Thread) {
		a := m.Cluster().AllocI64(64)
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 1 {
				a.Set(tc, 3, -42)
			}
		})
		got = a.Get(m, 3)
	})
	if got != -42 {
		t.Fatalf("I64 read %d", got)
	}
}

func TestScalarInitHybridResetsAllReplicas(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 1, Mode: Hybrid}
	bad := 0
	run(t, cfg, func(m *Thread) {
		s := m.Cluster().ScalarVar("v")
		s.Init(m, 7)
		m.Parallel(func(tc *Thread) {
			if s.Get(tc) != 7 {
				bad++
			}
			// Accumulate from the initialized base.
			tc.Critical("c", []*Scalar{s}, func() { s.Add(tc, 1) })
			if s.Get(tc) != 11 {
				bad++
			}
		})
	})
	if bad != 0 {
		t.Fatalf("%d replicas saw wrong values after Init", bad)
	}
}

func TestReduceVecBothModes(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: mode}
		var got []float64
		run(t, cfg, func(m *Thread) {
			m.Parallel(func(tc *Thread) {
				v := tc.ReduceVec("vec", OpSum, []float64{1, float64(tc.GID()), 10})
				tc.Master(func() { got = v })
			})
		})
		if len(got) != 3 || got[0] != 4 || got[1] != 6 || got[2] != 40 {
			t.Fatalf("mode %v: ReduceVec = %v", mode, got)
		}
	}
}

func TestReduceVecRepeated(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: Hybrid}
	bad := 0
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			for r := 1; r <= 3; r++ {
				v := tc.ReduceVec("rep", OpSum, []float64{float64(r)})
				if v[0] != float64(4*r) {
					bad++
				}
			}
		})
	})
	if bad != 0 {
		t.Fatalf("%d wrong repeated vector reductions", bad)
	}
}

func TestSingleNilScalar(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: Hybrid}
	execs := 0
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.Single("sideeffect", nil, func() { execs++ })
		})
	})
	if execs != 1 {
		t.Fatalf("nil-scalar single executed %d times", execs)
	}
}

func TestForCostHugePerIterStillCharges(t *testing.T) {
	cfg := Config{Nodes: 1, ThreadsPerNode: 1}
	var elapsed sim.Duration
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			start := tc.Now()
			// Per-iteration cost larger than the batching target: batch
			// size clamps to 1.
			tc.ForCostNowait(0, 3, 2*sim.Millisecond, func(i int) {})
			elapsed = sim.Duration(tc.Now() - start)
		})
	})
	if elapsed != 6*sim.Millisecond {
		t.Fatalf("charged %v, want 6ms", elapsed)
	}
}

func TestForEmptyAndReversedRanges(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	ran := 0
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.For(5, 5, func(i int) { ran++ })
			tc.For(9, 3, func(i int) { ran++ })
		})
	})
	if ran != 0 {
		t.Fatalf("empty/reversed ranges ran %d iterations", ran)
	}
}

func TestForDynamicChunkLargerThanRange(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	count := 0
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.For(0, 5, func(i int) { count++ }, WithName("big"), WithSchedule(Dynamic, 100))
		})
	})
	if count != 5 {
		t.Fatalf("ran %d iterations, want 5", count)
	}
}

func TestTCPFabricSlowsCommunication(t *testing.T) {
	measure := func(cfg Config) sim.Duration {
		rep := run(t, cfg, func(m *Thread) {
			a := m.Cluster().AllocF64(4096)
			m.Parallel(func(tc *Thread) {
				tc.For(0, 4096, func(i int) { a.Set(tc, i, 1) })
				tc.For(0, 4096, func(i int) { _ = a.Get(tc, (i+2048)%4096) })
			})
		})
		return rep.Time
	}
	via := Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: true}.WithDefaults()
	tcp := via
	tcp.Fabric = netsim.TCP()
	if tv, tt := measure(via), measure(tcp); tt <= tv {
		t.Fatalf("TCP (%v) not slower than VIA (%v)", tt, tv)
	}
}

func TestLockCachingConfigRuns(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 1, Mode: SDSM, LockCaching: true}
	var final float64
	rep := run(t, cfg, func(m *Thread) {
		s := m.Cluster().ScalarVar("x")
		m.Parallel(func(tc *Thread) {
			for i := 0; i < 5; i++ {
				tc.Critical("c", []*Scalar{s}, func() { s.Add(tc, 1) })
			}
		})
		m.Parallel(func(tc *Thread) {})
		final = s.Get(m)
	})
	if final != 20 {
		t.Fatalf("sum = %v", final)
	}
	if rep.Counters.LockRequests == 0 {
		t.Fatal("no lock requests recorded")
	}
}

func TestThreadStringer(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2}
	run(t, cfg, func(m *Thread) {
		if m.String() != "thread0@node0" {
			t.Errorf("String = %q", m.String())
		}
	})
}

func TestReportUtilization(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1, CPUsPerNode: 1}
	rep := run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) { tc.Compute(10 * sim.Millisecond) })
	})
	if len(rep.CPUBusy) != 2 {
		t.Fatalf("CPUBusy = %v", rep.CPUBusy)
	}
	u := rep.Utilization()
	if u <= 0.3 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	// An idle-heavy run must report lower utilization: one node computes,
	// the other waits at the barrier.
	cfgIdle := Config{Nodes: 2, ThreadsPerNode: 1, CPUsPerNode: 2}
	repIdle := run(t, cfgIdle, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				tc.Compute(10 * sim.Millisecond)
			}
		})
	})
	if repIdle.Utilization() >= u {
		t.Fatalf("imbalanced run utilization %v not below balanced %v", repIdle.Utilization(), u)
	}
}

func TestAutoThresholdMatchesPaperBallpark(t *testing.T) {
	th := AutoThreshold(netsim.VIA(), 8)
	// The paper chose 256 bytes for its 8-node VIA Linux cluster; the
	// derived value must land in the same ballpark (within ~4x).
	if th < 64 || th > 1024 {
		t.Fatalf("derived VIA threshold %d bytes, want hundreds", th)
	}
	// A slower per-byte fabric must lower the switch point.
	if tcp := AutoThreshold(netsim.TCP(), 8); tcp >= th {
		t.Fatalf("TCP threshold %d not below VIA %d", tcp, th)
	}
}

func TestAutoThresholdShrinksWithNodes(t *testing.T) {
	t2 := AutoThreshold(netsim.VIA(), 2)
	t8 := AutoThreshold(netsim.VIA(), 8)
	if t8 > t2 {
		t.Fatalf("threshold grew with nodes: 2->%d, 8->%d", t2, t8)
	}
}

func TestAutoThresholdSingleNodeUnbounded(t *testing.T) {
	if th := AutoThreshold(netsim.VIA(), 1); th < 1<<19 {
		t.Fatalf("single-node threshold %d should be effectively unbounded", th)
	}
}

func TestAutoThresholdAligned(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, f := range []netsim.Fabric{netsim.VIA(), netsim.TCP()} {
			th := AutoThreshold(f, n)
			if th%8 != 0 || th < 8 {
				t.Fatalf("threshold %d not 8-byte aligned", th)
			}
		}
	}
}
