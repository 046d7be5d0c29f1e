package parade_test

// One benchmark per figure of the paper's evaluation (Figs. 6-11), plus
// ablation benchmarks for the design decisions DESIGN.md calls out. The
// interesting output is the reported custom metrics: virtual seconds (or
// microseconds per directive) on the simulated Pentium-III/cLAN cluster,
// which are what EXPERIMENTS.md compares against the paper. Go's ns/op
// for these benchmarks measures simulator throughput, not the paper's
// quantities.
//
// The full paper-scale sweeps are produced by cmd/parade-bench; the
// benchmarks here run the same code on bench-scale workloads so the
// whole suite completes in minutes.

import (
	"fmt"
	"testing"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/dsm"
	"parade/internal/kdsm"
	"parade/internal/microbench"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// paradeCfg is the ParADE runtime at n nodes, one thread per node.
func paradeCfg(n int) core.Config {
	return core.Config{Nodes: n, ThreadsPerNode: 1, Mode: core.Hybrid, HomeMigration: true}.WithDefaults()
}

// benchMicro runs one directive microbenchmark under both systems for
// the node sweep, reporting virtual us/op.
func benchMicro(b *testing.B, run func(core.Config, int) (microbench.Result, error)) {
	for _, nodes := range []int{1, 2, 4, 8} {
		for _, sys := range []struct {
			label string
			cfg   core.Config
		}{
			{"ParADE", paradeCfg(nodes)},
			{"KDSM", kdsm.Config(nodes, 1, 2)},
		} {
			b.Run(fmt.Sprintf("%s/nodes=%d", sys.label, nodes), func(b *testing.B) {
				b.ReportAllocs()
				var perOp sim.Duration
				for i := 0; i < b.N; i++ {
					r, err := run(sys.cfg, 100)
					if err != nil {
						b.Fatal(err)
					}
					perOp = r.PerOp
				}
				b.ReportMetric(perOp.Micros(), "virtual-us/op")
			})
		}
	}
}

func BenchmarkFig6Critical(b *testing.B) { benchMicro(b, microbench.Critical) }

func BenchmarkFig7Single(b *testing.B) { benchMicro(b, microbench.Single) }

// benchApp sweeps the paper's three configurations at 4 nodes (one
// representative point per configuration), reporting virtual seconds.
func benchApp(b *testing.B, run func(cfg core.Config) (sim.Duration, error)) {
	for _, c := range []struct {
		label string
		cfg   core.Config
	}{
		{"1T1C", core.Config1T1C(4)},
		{"1T2C", core.Config1T2C(4)},
		{"2T2C", core.Config2T2C(4)},
	} {
		b.Run(c.label, func(b *testing.B) {
			b.ReportAllocs()
			var kernel sim.Duration
			for i := 0; i < b.N; i++ {
				d, err := run(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				kernel = d
			}
			b.ReportMetric(kernel.Seconds(), "virtual-s")
		})
	}
}

func BenchmarkFig8CG(b *testing.B) {
	class := apps.CGClassS
	if testing.Short() {
		class = apps.CGClassT
	}
	benchApp(b, func(cfg core.Config) (sim.Duration, error) {
		r, err := apps.RunCG(cfg, class)
		return r.KernelTime, err
	})
}

func BenchmarkFig9EP(b *testing.B) {
	class := apps.EPClass{Name: "bench", M: 18, PerPair: apps.EPClassA.PerPair}
	benchApp(b, func(cfg core.Config) (sim.Duration, error) {
		r, err := apps.RunEP(cfg, class)
		return r.KernelTime, err
	})
}

func BenchmarkFig10Helmholtz(b *testing.B) {
	prm := apps.HelmholtzDefault()
	prm.N, prm.M, prm.MaxIter = 96, 96, 40
	benchApp(b, func(cfg core.Config) (sim.Duration, error) {
		r, err := apps.RunHelmholtz(cfg, prm)
		return r.KernelTime, err
	})
}

func BenchmarkFig11MD(b *testing.B) {
	prm := apps.MDDefault()
	prm.NP, prm.Steps = 128, 10
	benchApp(b, func(cfg core.Config) (sim.Duration, error) {
		r, err := apps.RunMD(cfg, prm)
		return r.KernelTime, err
	})
}

// BenchmarkAblationHomeMigration isolates the migratory-home extension:
// CG with the home fixed at the master versus homes following the sole
// modifier. The virtual-s and page-fetch metrics show the locality win.
func BenchmarkAblationHomeMigration(b *testing.B) {
	// Class W is the smallest class whose vectors span enough pages for
	// per-node block ownership to exist (at class S and below a node's
	// vector block is under one page, so every page is multi-writer and
	// no home can migrate).
	for _, mig := range []bool{false, true} {
		b.Run(fmt.Sprintf("migration=%v", mig), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: mig}.WithDefaults()
			var kernel sim.Duration
			var fetches, diffs int64
			for i := 0; i < b.N; i++ {
				r, err := apps.RunCG(cfg, apps.CGClassW)
				if err != nil {
					b.Fatal(err)
				}
				kernel = r.KernelTime
				fetches = r.Report.Counters.PageFetches
				diffs = r.Report.Counters.DiffsCreated
			}
			b.ReportMetric(kernel.Seconds(), "virtual-s")
			b.ReportMetric(float64(fetches), "page-fetches")
			b.ReportMetric(float64(diffs), "diffs")
		})
	}
}

// BenchmarkAblationHybridThreshold sweeps the small-structure threshold:
// below the guarded data's size the critical falls back to SDSM locks.
func BenchmarkAblationHybridThreshold(b *testing.B) {
	const scalarsInBlock = 8 // 64 bytes of guarded data
	for _, threshold := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			b.ReportAllocs()
			cfg := paradeCfg(4)
			cfg.SmallThreshold = threshold
			var elapsed sim.Duration
			for i := 0; i < b.N; i++ {
				var start, end sim.Time
				_, err := core.Run(cfg, func(m *core.Thread) {
					scalars := make([]*core.Scalar, scalarsInBlock)
					for k := range scalars {
						scalars[k] = m.Cluster().ScalarVar(fmt.Sprintf("s%d", k))
					}
					m.Parallel(func(tc *core.Thread) {}) // warm
					m.Parallel(func(tc *core.Thread) {
						tc.Master(func() { start = tc.Now() })
						for r := 0; r < 50; r++ {
							tc.Critical("abl", scalars, func() {
								for _, s := range scalars {
									s.Add(tc, 1)
								}
							})
						}
						tc.Barrier()
						tc.Master(func() { end = tc.Now() })
					})
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = sim.Duration(end - start)
			}
			b.ReportMetric(elapsed.Micros()/50, "virtual-us/critical")
		})
	}
}

// BenchmarkAblationCommThread isolates the dedicated communication
// thread: the same communication-heavy loop with and without a spare
// processor for it.
func BenchmarkAblationCommThread(b *testing.B) {
	for _, c := range []struct {
		label string
		cfg   core.Config
	}{
		{"shared-cpu-1T1C", core.Config1T1C(4)},
		{"dedicated-cpu-1T2C", core.Config1T2C(4)},
	} {
		b.Run(c.label, func(b *testing.B) {
			b.ReportAllocs()
			var kernel sim.Duration
			for i := 0; i < b.N; i++ {
				r, err := apps.RunHelmholtz(c.cfg, apps.HelmholtzTest())
				if err != nil {
					b.Fatal(err)
				}
				kernel = r.KernelTime
			}
			b.ReportMetric(kernel.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkAblationUpdateStrategy compares the four atomic-page-update
// methods of §5.1 (the paper found them comparable on Linux).
func BenchmarkAblationUpdateStrategy(b *testing.B) {
	for _, s := range []dsm.UpdateStrategy{dsm.FileMapping, dsm.SysVShm, dsm.Mdup, dsm.ChildProcess} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := paradeCfg(4)
			cfg.Strategy = s
			var kernel sim.Duration
			for i := 0; i < b.N; i++ {
				r, err := apps.RunCG(cfg, apps.CGClassT)
				if err != nil {
					b.Fatal(err)
				}
				kernel = r.KernelTime
			}
			b.ReportMetric(kernel.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkAblationFabric compares the cLAN VIA fabric against TCP/IP
// over Fast Ethernet for a communication-sensitive workload.
func BenchmarkAblationFabric(b *testing.B) {
	for _, f := range []netsim.Fabric{netsim.VIA(), netsim.TCP()} {
		b.Run(f.Name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := paradeCfg(4)
			cfg.Fabric = f
			var kernel sim.Duration
			for i := 0; i < b.N; i++ {
				r, err := apps.RunHelmholtz(cfg, apps.HelmholtzTest())
				if err != nil {
					b.Fatal(err)
				}
				kernel = r.KernelTime
			}
			b.ReportMetric(kernel.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkAblationLockProtocol compares three synchronization designs
// on the contended-critical microbenchmark: ParADE's collectives, KDSM's
// cached (lazy-release) lock tokens, and the plain centralized lock.
func BenchmarkAblationLockProtocol(b *testing.B) {
	for _, sys := range []struct {
		label string
		cfg   core.Config
	}{
		{"parade-collective", paradeCfg(4)},
		{"kdsm-cached-token", kdsm.ConfigCached(4, 1, 2)},
		{"kdsm-centralized", kdsm.Config(4, 1, 2)},
	} {
		b.Run(sys.label, func(b *testing.B) {
			b.ReportAllocs()
			var perOp sim.Duration
			for i := 0; i < b.N; i++ {
				r, err := microbench.Critical(sys.cfg, 100)
				if err != nil {
					b.Fatal(err)
				}
				perOp = r.PerOp
			}
			b.ReportMetric(perOp.Micros(), "virtual-us/op")
		})
	}
}

// BenchmarkAblationDynamicSchedule runs a triangular (imbalanced) loop
// under the static schedule and the dynamic extension.
func BenchmarkAblationDynamicSchedule(b *testing.B) {
	const n = 512
	for _, dyn := range []bool{false, true} {
		label := "static"
		if dyn {
			label = "dynamic"
		}
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			var start, end sim.Time
			for i := 0; i < b.N; i++ {
				_, err := core.Run(paradeCfg(4), func(m *core.Thread) {
					m.Parallel(func(tc *core.Thread) {}) // warm
					m.Parallel(func(tc *core.Thread) {
						tc.Master(func() { start = tc.Now() })
						body := func(it int) {
							tc.Compute(sim.Duration(it) * sim.Microsecond)
						}
						if dyn {
							tc.For(0, n, body, core.WithName("tri"), core.WithSchedule(core.Dynamic, 8))
						} else {
							tc.For(0, n, body)
						}
						tc.Master(func() { end = tc.Now() })
					})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric((sim.Duration(end-start)).Seconds()*1e3, "virtual-ms")
		})
	}
}
