package core

import (
	"testing"
	"testing/quick"

	"parade/internal/sim"
)

func run(t *testing.T, cfg Config, program func(master *Thread)) Report {
	t.Helper()
	rep, err := Run(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParallelRunsAllThreads(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 2}
	seen := map[int]int{}
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			seen[tc.GID()]++
		})
	})
	if len(seen) != 8 {
		t.Fatalf("saw %d threads, want 8: %v", len(seen), seen)
	}
	for gid, n := range seen {
		if n != 1 {
			t.Fatalf("thread %d ran %d times", gid, n)
		}
	}
}

func TestThreadIdentity(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2}
	run(t, cfg, func(m *Thread) {
		if m.GID() != 0 || m.NodeID() != 0 {
			t.Errorf("master gid=%d node=%d", m.GID(), m.NodeID())
		}
		m.Parallel(func(tc *Thread) {
			if tc.NodeID() != tc.GID()/2 || tc.LID() != tc.GID()%2 {
				t.Errorf("gid %d: node %d lid %d", tc.GID(), tc.NodeID(), tc.LID())
			}
			if tc.NumThreads() != 4 {
				t.Errorf("NumThreads = %d", tc.NumThreads())
			}
		})
	})
}

func TestMultipleRegionsAndSerialSections(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2}
	var order []string
	run(t, cfg, func(m *Thread) {
		order = append(order, "serial0")
		m.Parallel(func(tc *Thread) { tc.Master(func() { order = append(order, "region0") }) })
		order = append(order, "serial1")
		m.Parallel(func(tc *Thread) { tc.Master(func() { order = append(order, "region1") }) })
		order = append(order, "serial2")
	})
	want := []string{"serial0", "region0", "serial1", "region1", "serial2"}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSerialWritesVisibleInRegion(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 1}
	bad := 0
	run(t, cfg, func(m *Thread) {
		a := m.Cluster().AllocF64(100)
		for i := 0; i < 100; i++ {
			a.Set(m, i, float64(i)*1.5)
		}
		m.Parallel(func(tc *Thread) {
			tc.For(0, 100, func(i int) {
				if a.Get(tc, i) != float64(i)*1.5 {
					bad++
				}
			}, Nowait())
		})
	})
	if bad != 0 {
		t.Fatalf("%d stale reads of serial writes", bad)
	}
}

func TestSerialWritesAfterMigrationVisible(t *testing.T) {
	// Force a page's home away from the master, then have the master
	// modify it serially; the fork-time flush must make the write visible.
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	var got float64
	run(t, cfg, func(m *Thread) {
		a := m.Cluster().AllocF64(8)
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 1 {
				a.Set(tc, 0, 1) // sole modifier: home migrates to node 1
			}
		})
		a.Set(m, 0, 2) // serial write by master (no longer home)
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 1 {
				got = a.Get(tc, 0)
			}
		})
	})
	if got != 2 {
		t.Fatalf("node 1 read %v after master's serial write, want 2", got)
	}
}

func TestForPartitionCoversAllIterations(t *testing.T) {
	cfg := Config{Nodes: 3, ThreadsPerNode: 2}
	counts := make([]int, 100)
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.For(0, 100, func(i int) { counts[i]++ })
		})
	})
	for i, n := range counts {
		if n != 1 {
			t.Fatalf("iteration %d executed %d times", i, n)
		}
	}
}

func TestStaticRangeProperty(t *testing.T) {
	prop := func(loRaw, lenRaw uint16, nodesRaw, tprRaw uint8) bool {
		nodes := int(nodesRaw)%4 + 1
		tpr := int(tprRaw)%3 + 1
		lo := int(loRaw) % 1000
		hi := lo + int(lenRaw)%2000
		nt := nodes * tpr
		covered := 0
		prevHi := lo
		for gid := 0; gid < nt; gid++ {
			tt := &Thread{c: &Cluster{cfg: Config{Nodes: nodes, ThreadsPerNode: tpr}}, gid: gid}
			l, h := tt.StaticRange(lo, hi)
			if l != prevHi { // contiguous, in order, no gaps
				return false
			}
			if h < l {
				return false
			}
			covered += h - l
			prevHi = h
		}
		return prevHi == hi && covered == hi-lo
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelArrayWriteReadAcrossBarrier(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 2}
	const n = 1024
	bad := 0
	run(t, cfg, func(m *Thread) {
		a := m.Cluster().AllocF64(n)
		b := m.Cluster().AllocF64(n)
		m.Parallel(func(tc *Thread) {
			tc.For(0, n, func(i int) { a.Set(tc, i, float64(i)) })
			// Shifted read: each thread reads data another thread wrote.
			tc.For(0, n, func(i int) {
				b.Set(tc, i, a.Get(tc, (i+n/2)%n)*2)
			})
		})
		for i := 0; i < n; i++ {
			want := float64((i+n/2)%n) * 2
			if b.Get(m, i) != want {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d wrong values after cross-thread exchange", bad)
	}
}

func TestReduceHybridAndSDSMAgree(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		cfg := Config{Nodes: 4, ThreadsPerNode: 2, Mode: mode}
		results := map[int]float64{}
		run(t, cfg, func(m *Thread) {
			m.Parallel(func(tc *Thread) {
				v := tc.Reduce("sum", OpSum, float64(tc.GID()+1))
				tc.node.barMu.Lock(tc.p)
				results[tc.GID()] = v
				tc.node.barMu.Unlock(tc.p)
			})
		})
		want := 36.0 // 1+..+8
		for gid, v := range results {
			if v != want {
				t.Fatalf("mode %v: thread %d reduced to %v, want %v", mode, gid, v, want)
			}
		}
	}
}

func TestReduceOps(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2}
	var maxV, minV, prodV float64
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			v := float64(tc.GID() + 1)
			mx := tc.Reduce("max", OpMax, v)
			mn := tc.Reduce("min", OpMin, v)
			pr := tc.Reduce("prod", OpProd, v)
			tc.Master(func() { maxV, minV, prodV = mx, mn, pr })
		})
	})
	if maxV != 4 || minV != 1 || prodV != 24 {
		t.Fatalf("max=%v min=%v prod=%v", maxV, minV, prodV)
	}
}

func TestRepeatedReductionsStayCorrect(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: mode}
		bad := 0
		run(t, cfg, func(m *Thread) {
			m.Parallel(func(tc *Thread) {
				for round := 1; round <= 5; round++ {
					v := tc.Reduce("r", OpSum, float64(round*(tc.GID()+1)))
					if v != float64(round*10) { // round*(1+2+3+4)
						bad++
					}
				}
			})
		})
		if bad != 0 {
			t.Fatalf("mode %v: %d wrong repeated reductions", mode, bad)
		}
	}
}

func TestCriticalHybridAccumulates(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 2, Mode: Hybrid}
	var final float64
	rep := run(t, cfg, func(m *Thread) {
		s := m.Cluster().ScalarVar("x")
		m.Parallel(func(tc *Thread) {
			for i := 0; i < 10; i++ {
				tc.Critical("cs", []*Scalar{s}, func() { s.Add(tc, 1) })
			}
		})
		final = s.Get(m)
	})
	if final != 80 {
		t.Fatalf("critical sum = %v, want 80", final)
	}
	if rep.Counters.LockRequests != 0 {
		t.Fatalf("hybrid critical used %d SDSM locks", rep.Counters.LockRequests)
	}
	if rep.Counters.HybridCriticals == 0 {
		t.Fatal("hybrid criticals not counted")
	}
}

func TestCriticalSDSMAccumulates(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 2, Mode: SDSM}
	var final float64
	rep := run(t, cfg, func(m *Thread) {
		s := m.Cluster().ScalarVar("x")
		m.Parallel(func(tc *Thread) {
			for i := 0; i < 5; i++ {
				tc.Critical("cs", []*Scalar{s}, func() { s.Add(tc, 1) })
			}
		})
		m.Parallel(func(tc *Thread) {}) // extra barrier settles diffs
		final = s.Get(m)
	})
	if final != 40 {
		t.Fatalf("critical sum = %v, want 40", final)
	}
	if rep.Counters.LockRequests == 0 {
		t.Fatal("SDSM critical used no locks")
	}
	if rep.Counters.HybridCriticals != 0 {
		t.Fatal("SDSM mode counted hybrid criticals")
	}
}

func TestCriticalNonAnalyzableFallsBackToLock(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1, Mode: Hybrid}
	rep := run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.Critical("raw", nil, func() {})
		})
	})
	if rep.Counters.LockRequests == 0 {
		t.Fatal("non-analyzable critical should use the SDSM lock even in hybrid mode")
	}
}

func TestAtomicAccumulates(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: mode}
		var final float64
		run(t, cfg, func(m *Thread) {
			s := m.Cluster().ScalarVar("a")
			m.Parallel(func(tc *Thread) {
				for i := 0; i < 4; i++ {
					tc.Atomic(s, 0.5)
				}
			})
			if mode == SDSM {
				m.Parallel(func(tc *Thread) {})
			}
			final = s.Get(m)
		})
		if final != 8 {
			t.Fatalf("mode %v: atomic sum = %v, want 8", mode, final)
		}
	}
}

func TestSingleExecutesOnce(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		cfg := Config{Nodes: 4, ThreadsPerNode: 2, Mode: mode}
		execs := 0
		vals := map[int]float64{}
		run(t, cfg, func(m *Thread) {
			s := m.Cluster().ScalarVar("init")
			m.Parallel(func(tc *Thread) {
				tc.Single("s1", s, func() {
					execs++
					s.Set(tc, 42)
				})
				tc.Barrier()
				tc.node.barMu.Lock(tc.p)
				vals[tc.GID()] = s.Get(tc)
				tc.node.barMu.Unlock(tc.p)
			})
		})
		if execs != 1 {
			t.Fatalf("mode %v: single executed %d times", mode, execs)
		}
		for gid, v := range vals {
			if v != 42 {
				t.Fatalf("mode %v: thread %d sees %v", mode, gid, v)
			}
		}
	}
}

func TestSingleRepeatedRounds(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: mode}
		execs := 0
		run(t, cfg, func(m *Thread) {
			s := m.Cluster().ScalarVar("v")
			m.Parallel(func(tc *Thread) {
				for i := 0; i < 5; i++ {
					tc.Single("loop", s, func() { execs++ })
					tc.Barrier()
				}
			})
		})
		if execs != 5 {
			t.Fatalf("mode %v: single executed %d times over 5 rounds", mode, execs)
		}
	}
}

func TestSingleBarrierGeneralBlock(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: Hybrid}
	bad := 0
	run(t, cfg, func(m *Thread) {
		a := m.Cluster().AllocF64(16)
		m.Parallel(func(tc *Thread) {
			tc.SingleBarrier("bigInit", func() {
				for i := 0; i < 16; i++ {
					a.Set(tc, i, 7)
				}
			})
			// The implicit barrier of the general single must make the
			// array visible to every thread.
			for i := 0; i < 16; i++ {
				if a.Get(tc, i) != 7 {
					bad++
				}
			}
		})
	})
	if bad != 0 {
		t.Fatalf("%d stale reads after SingleBarrier", bad)
	}
}

func TestHybridSingleAvoidsSDSMBarrier(t *testing.T) {
	count := func(mode Mode) (int64, int64) {
		cfg := Config{Nodes: 4, ThreadsPerNode: 1, Mode: mode}
		rep := run(t, cfg, func(m *Thread) {
			s := m.Cluster().ScalarVar("x")
			m.Parallel(func(tc *Thread) {
				tc.Single("s", s, func() { s.Set(tc, 1) })
			})
		})
		return rep.Counters.Barriers, rep.Counters.LockRequests
	}
	hb, hl := count(Hybrid)
	sb, sl := count(SDSM)
	if hl != 0 {
		t.Fatalf("hybrid single used %d locks", hl)
	}
	if sl == 0 {
		t.Fatal("SDSM single used no locks")
	}
	if hb >= sb {
		t.Fatalf("hybrid single ran %d SDSM barriers, SDSM %d — hybrid should need fewer", hb, sb)
	}
}

func TestHybridCriticalFasterThanSDSM(t *testing.T) {
	measure := func(mode Mode) sim.Duration {
		cfg := Config{Nodes: 4, ThreadsPerNode: 1, Mode: mode}
		var start, end sim.Time
		run(t, cfg, func(m *Thread) {
			s := m.Cluster().ScalarVar("x")
			m.Parallel(func(tc *Thread) {}) // warm the team
			start = m.Now()
			m.Parallel(func(tc *Thread) {
				for i := 0; i < 20; i++ {
					tc.Critical("cs", []*Scalar{s}, func() { s.Add(tc, 1) })
				}
			})
			end = m.Now()
		})
		return sim.Duration(end - start)
	}
	hybrid, sdsm := measure(Hybrid), measure(SDSM)
	if hybrid >= sdsm {
		t.Fatalf("hybrid critical %v not faster than SDSM %v", hybrid, sdsm)
	}
}

func TestCommOverlap1T2CFasterThan1T1C(t *testing.T) {
	// Communication-heavy loop: with a CPU dedicated to the comm thread,
	// protocol handling overlaps computation.
	measure := func(cfg Config) sim.Duration {
		rep := run(t, cfg, func(m *Thread) {
			a := m.Cluster().AllocF64(8192)
			m.Parallel(func(tc *Thread) {
				for iter := 0; iter < 3; iter++ {
					tc.ForCost(0, 8192, 200*sim.Nanosecond, func(i int) {
						a.Set(tc, i, float64(i+iter))
					})
					tc.ForCost(0, 8192, 200*sim.Nanosecond, func(i int) {
						_ = a.Get(tc, (i+4096)%8192)
					})
				}
			})
		})
		return rep.Time
	}
	t1c := measure(Config1T1C(4))
	t2c := measure(Config1T2C(4))
	if t2c >= t1c {
		t.Fatalf("1T2C (%v) not faster than 1T1C (%v)", t2c, t1c)
	}
}

func TestDeterministicReports(t *testing.T) {
	measure := func() Report {
		cfg := Config{Nodes: 4, ThreadsPerNode: 2}
		return run(t, cfg, func(m *Thread) {
			a := m.Cluster().AllocF64(2048)
			s := m.Cluster().ScalarVar("x")
			m.Parallel(func(tc *Thread) {
				tc.For(0, 2048, func(i int) { a.Set(tc, i, float64(i)) })
				tc.Critical("c", []*Scalar{s}, func() { s.Add(tc, 1) })
				tc.Reduce("r", OpSum, 1)
			})
		})
	}
	r1, r2 := measure(), measure()
	if r1.Time != r2.Time {
		t.Fatalf("times differ: %v vs %v", r1.Time, r2.Time)
	}
	if r1.Counters != r2.Counters {
		t.Fatalf("counters differ:\n%s\n%s", r1.Counters.String(), r2.Counters.String())
	}
}

func TestForCostChargesTime(t *testing.T) {
	cfg := Config{Nodes: 1, ThreadsPerNode: 1}
	var elapsed sim.Duration
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			start := tc.Now()
			tc.ForCostNowait(0, 1000, sim.Microsecond, func(i int) {})
			elapsed = sim.Duration(tc.Now() - start)
		})
	})
	if elapsed != 1000*sim.Microsecond {
		t.Fatalf("charged %v, want 1ms", elapsed)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Nodes: -1}, func(*Thread) {}); err == nil {
		t.Fatal("negative nodes accepted")
	}
	bad := Config{Nodes: 1}.WithDefaults()
	bad.SmallThreshold = 4
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny threshold accepted")
	}
}

func TestConfigPresets(t *testing.T) {
	c := Config1T1C(4)
	if c.ThreadsPerNode != 1 || c.CPUsPerNode != 1 || c.Nodes != 4 {
		t.Fatalf("1T1C = %+v", c)
	}
	c = Config1T2C(2)
	if c.ThreadsPerNode != 1 || c.CPUsPerNode != 2 {
		t.Fatalf("1T2C = %+v", c)
	}
	c = Config2T2C(8)
	if c.ThreadsPerNode != 2 || c.CPUsPerNode != 2 {
		t.Fatalf("2T2C = %+v", c)
	}
}

func TestScalarSharedByName(t *testing.T) {
	cfg := Config{Nodes: 1, ThreadsPerNode: 1}
	run(t, cfg, func(m *Thread) {
		a := m.Cluster().ScalarVar("same")
		b := m.Cluster().ScalarVar("same")
		if a != b {
			t.Error("ScalarVar did not dedupe by name")
		}
	})
}

func TestThresholdForcesLockPath(t *testing.T) {
	// With a tiny threshold, even a single scalar exceeds the limit and
	// the critical takes the SDSM lock path despite Hybrid mode.
	cfg := Config{Nodes: 2, ThreadsPerNode: 1, Mode: Hybrid, SmallThreshold: 8}
	rep := run(t, cfg, func(m *Thread) {
		s1 := m.Cluster().ScalarVar("a")
		s2 := m.Cluster().ScalarVar("b")
		m.Parallel(func(tc *Thread) {
			tc.Critical("cs", []*Scalar{s1, s2}, func() {
				s1.Add(tc, 1)
				s2.Add(tc, 1)
			})
		})
	})
	if rep.Counters.LockRequests == 0 {
		t.Fatal("oversized critical did not fall back to the lock path")
	}
}
