package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"parade/internal/hlrc"
	"parade/internal/netsim"
	"parade/internal/obs"
	"parade/internal/sim"
)

// laneWorkload is a representative program exercising every subsystem
// the lane refactor touches: serial allocations, fork-join regions,
// static and dynamic loops over DSM arrays, hybrid and SDSM directives,
// singles, and the tasking runtime with cross-node steals.
func laneWorkload(c *Cluster) func(*Thread) {
	arr := c.AllocF64(256)
	total := c.ScalarVar("total")
	return func(m *Thread) {
		total.Init(m, 0)
		m.Parallel(func(tc *Thread) {
			tc.For(0, arr.Len(), func(i int) {
				arr.Set(tc, i, float64(i))
			}, WithIterCost(200*sim.Nanosecond))
			sum := tc.Reduce("s1", OpSum, arr.Get(tc, tc.GID()))
			tc.Critical("c1", []*Scalar{total}, func() { total.Add(tc, sum) })
			tc.Single("init", total, func() { total.Set(tc, total.Get(tc)+1) })
			tc.For(0, 64, func(i int) {
				arr.Set(tc, i%arr.Len(), arr.Get(tc, i%arr.Len())+1)
			}, WithSchedule(Dynamic, 8))
			// Imbalanced spawn pattern: node 0's threads create all the
			// tasks, so completion requires cross-node steals in any
			// multi-node configuration.
			if tc.NodeID() == 0 {
				for k := 0; k < 4*tc.NumThreads(); k++ {
					k := k
					tc.Task(func(e *Thread) float64 {
						e.Compute(2 * sim.Microsecond)
						return float64(k)
					})
				}
			}
			got := tc.Taskwait()
			tc.Atomic(total, got/float64(tc.NumThreads()))
		})
	}
}

// runLaneWorkload executes the workload under cfg and returns its report.
func runLaneWorkload(t *testing.T, cfg Config) Report {
	t.Helper()
	rep, err := Run(cfg, func(m *Thread) {
		// Allocation happens inside the program (master serial context) —
		// Run does not expose the cluster before executing.
		laneWorkload(m.Cluster())(m)
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return rep
}

// reportsEqual compares every deterministic field of two reports.
func reportsEqual(t *testing.T, a, b Report, la, lb string) {
	t.Helper()
	if a.Time != b.Time {
		t.Errorf("Time differs: %s=%v %s=%v", la, a.Time, lb, b.Time)
	}
	if a.MemHash != b.MemHash {
		t.Errorf("MemHash differs: %s=%#x %s=%#x", la, a.MemHash, lb, b.MemHash)
	}
	if a.Counters != b.Counters {
		t.Errorf("Counters differ:\n%s: %+v\n%s: %+v", la, a.Counters, lb, b.Counters)
	}
	for i := range a.CPUBusy {
		if a.CPUBusy[i] != b.CPUBusy[i] {
			t.Errorf("CPUBusy[%d] differs: %s=%v %s=%v", i, la, a.CPUBusy[i], lb, b.CPUBusy[i])
		}
	}
}

func laneCfg(nodes, tpn, lanes int) Config {
	return Config{
		Nodes: nodes, ThreadsPerNode: tpn, CPUsPerNode: 2,
		HomeMigration: true, Lanes: lanes, Seed: 7,
	}.WithDefaults()
}

// TestLaneWorkerCountIdentity is the tentpole invariant: the report is
// bit-identical whether the lanes execute serially (Lanes=1) or with
// maximum host parallelism, in both execution modes.
func TestLaneWorkerCountIdentity(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		base := laneCfg(4, 2, 1)
		base.Mode = mode
		r1 := runLaneWorkload(t, base)

		for _, lanes := range []int{2, 4, 16} {
			cfg := laneCfg(4, 2, lanes)
			cfg.Mode = mode
			rN := runLaneWorkload(t, cfg)
			reportsEqual(t, r1, rN, "lanes=1", "lanes=N")
		}
	}
}

// TestLaneGOMAXPROCSIdentity pins the host scheduler to one CPU and then
// releases it: the virtual outcome must not move.
func TestLaneGOMAXPROCSIdentity(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	r1 := runLaneWorkload(t, laneCfg(4, 2, 4))
	runtime.GOMAXPROCS(prev)
	rN := runLaneWorkload(t, laneCfg(4, 2, 4))
	reportsEqual(t, r1, rN, "GOMAXPROCS=1", "GOMAXPROCS=N")
}

// TestLaneChurnIdentity injects host-scheduler churn at every window
// boundary and checks that the report still matches the calm run: the
// canonical merge must make goroutine interleaving unobservable.
func TestLaneChurnIdentity(t *testing.T) {
	calm := runLaneWorkload(t, laneCfg(4, 2, 4))
	laneWindowChurn = true
	defer func() { laneWindowChurn = false }()
	churned := runLaneWorkload(t, laneCfg(4, 2, 4))
	reportsEqual(t, calm, churned, "calm", "churned")
}

// TestLaneFingerprintAcrossLaneCounts runs a DSM-heavy SDSM-mode program
// and compares the full shared-memory fingerprint across worker counts.
func TestLaneFingerprintAcrossLaneCounts(t *testing.T) {
	run := func(lanes int) Report {
		cfg := laneCfg(8, 1, lanes)
		cfg.Mode = SDSM
		rep, err := Run(cfg, func(m *Thread) {
			arr := m.Cluster().AllocF64(512)
			m.Parallel(func(tc *Thread) {
				for round := 0; round < 3; round++ {
					tc.For(0, arr.Len(), func(i int) {
						arr.Set(tc, i, arr.Get(tc, i)+float64(i+round))
					})
				}
			})
		})
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		return rep
	}
	r1 := run(1)
	for _, lanes := range []int{2, 8} {
		rN := run(lanes)
		if r1.MemHash != rN.MemHash {
			t.Errorf("StateFingerprint differs at lanes=%d: %#x vs %#x", lanes, r1.MemHash, rN.MemHash)
		}
		reportsEqual(t, r1, rN, "lanes=1", "lanes=N")
	}
}

// TestLaneRotatedLockIDs regression-tests the lock registry replicas.
// Critical is not collective, so threads may first-use lock sites in a
// gid-dependent order (node 0 starts its walk at lock 0, node 1 at
// lock 1, ...). First-use-order replica ids would map the same name to
// different locks on different nodes — broken mutual exclusion and
// silently lost increments. The name-derived ids must keep every
// increment (matching the legacy kernel's exact count) at any lane
// count, with bit-identical reports across counts.
func TestLaneRotatedLockIDs(t *testing.T) {
	const locks, iters, stride = 3, 5, 64
	for _, mode := range []Mode{Hybrid, SDSM} {
		run := func(lanes int) (Report, float64) {
			cfg := laneCfg(4, 1, lanes)
			cfg.Mode = mode
			var sum float64
			rep, err := Run(cfg, func(m *Thread) {
				arr := m.Cluster().AllocF64(locks * stride)
				m.Parallel(func(tc *Thread) {
					gid := tc.GID()
					for it := 0; it < iters; it++ {
						for k := 0; k < locks; k++ {
							// Each node walks the locks from its own offset,
							// so no two nodes first-use them in the same order.
							l := (gid + it + k) % locks
							tc.Critical(fmt.Sprintf("rot%d", l), nil, func() {
								tc.Compute(2 * sim.Microsecond)
								arr.Set(tc, l*stride, arr.Get(tc, l*stride)+1)
							})
						}
					}
					tc.Barrier()
					if tc.GID() == 0 {
						for k := 0; k < locks; k++ {
							sum += arr.Get(tc, k*stride)
						}
					}
				})
			})
			if err != nil {
				t.Fatalf("mode=%v lanes=%d: %v", mode, lanes, err)
			}
			return rep, sum
		}
		want := float64(4 * iters * locks)
		_, legacy := run(0)
		if legacy != want {
			t.Fatalf("mode=%v legacy kernel lost updates: sum=%v want=%v", mode, legacy, want)
		}
		r1, s1 := run(1)
		if s1 != want {
			t.Errorf("mode=%v lanes=1 lost updates: sum=%v want=%v", mode, s1, want)
		}
		for _, lanes := range []int{2, 4} {
			rN, sN := run(lanes)
			if sN != want {
				t.Errorf("mode=%v lanes=%d lost updates: sum=%v want=%v", mode, lanes, sN, want)
			}
			reportsEqual(t, r1, rN, "lanes=1", "lanes=N")
		}
	}
}

// TestLaneChaosIdentity attaches a lossy fault profile: the per-node RNG
// streams must make the fault schedule — and with it every counter and
// the final memory image — independent of the worker count.
func TestLaneChaosIdentity(t *testing.T) {
	run := func(lanes int) Report {
		cfg := laneCfg(4, 2, lanes)
		prof := netsim.ProfileChaos(99)
		cfg.Faults = &prof
		return runLaneWorkload(t, cfg)
	}
	r1 := run(1)
	rN := run(4)
	if r1.Counters.InjectedDrops == 0 && r1.Counters.InjectedDelays == 0 {
		t.Fatalf("chaos profile injected nothing (drops=%d delays=%d)",
			r1.Counters.InjectedDrops, r1.Counters.InjectedDelays)
	}
	reportsEqual(t, r1, rN, "lanes=1", "lanes=N")
}

// TestLaneConfigErrors checks the typed validation failures.
func TestLaneConfigErrors(t *testing.T) {
	var lce *LaneConfigError

	cfg := laneCfg(2, 1, 0)
	cfg.Lanes = -3
	if _, err := Run(cfg, func(m *Thread) {}); !errors.As(err, &lce) {
		t.Fatalf("Lanes=-3: want *LaneConfigError, got %v", err)
	}
	if lce.Lanes != -3 {
		t.Fatalf("error carries Lanes=%d, want -3", lce.Lanes)
	}

	cfg = laneCfg(2, 1, 2)
	cfg.Fabric = netsim.Fabric{Name: "zero-lat", BandwidthBps: 100 << 20}
	if _, err := Run(cfg, func(m *Thread) {}); !errors.As(err, &lce) {
		t.Fatalf("zero-latency fabric: want *LaneConfigError, got %v", err)
	}
}

// TestLaneMetricsReport verifies the per-lane utilization counters and
// the lane_sync_latency histogram reach the metrics registry.
func TestLaneMetricsReport(t *testing.T) {
	cfg := laneCfg(4, 2, 4)
	cfg.Obs = obs.New(cfg.Nodes)
	rep := runLaneWorkload(t, cfg)
	if rep.Obs == nil {
		t.Fatal("no metrics attached")
	}
	stats, windows, sync := rep.Obs.LaneReport()
	if len(stats) != cfg.Nodes {
		t.Fatalf("lane stats for %d lanes, want %d", len(stats), cfg.Nodes)
	}
	if windows == 0 {
		t.Fatal("no windows recorded")
	}
	var events uint64
	for _, ls := range stats {
		events += ls.Events
	}
	if events == 0 {
		t.Fatal("no events recorded in lane stats")
	}
	if sync.Count == 0 {
		t.Fatal("empty lane_sync_latency histogram")
	}
}

// TestLaneWindowStructurePinned pins the window sequence itself, not only
// its results: the weak-scaling program of `parade-bench -scale weak`
// (150 µs compute + barrier, 40 rounds) must execute the same number of
// windows and lane events, and reach the same virtual time and memory
// image, at every worker count. Results alone could survive a change to
// how windows are formed or dispatched; these counts cannot.
func TestLaneWindowStructurePinned(t *testing.T) {
	want := []struct {
		nodes   int
		windows uint64
		events  uint64
		time    sim.Duration
		memHash uint64
	}{
		{64, 2852, 32063, 21248132, 0x2168ce7d6734465},
		{256, 11320, 128639, 84224132, 0x33259141a8c465},
	}
	for _, w := range want {
		for _, workers := range []int{1, 2, 4} {
			cfg := Config{
				Nodes: w.nodes, ThreadsPerNode: 1, CPUsPerNode: 2,
				HomeMigration: true, Lanes: workers, Seed: 11, Obs: obs.New(w.nodes),
			}.WithDefaults()
			rep, err := Run(cfg, func(m *Thread) {
				m.Parallel(func(tc *Thread) {
					for r := 0; r < 40; r++ {
						tc.Compute(150 * sim.Microsecond)
						tc.Barrier()
					}
				})
			})
			if err != nil {
				t.Fatalf("%d nodes, workers=%d: %v", w.nodes, workers, err)
			}
			stats, windows, _ := rep.Obs.LaneReport()
			var events uint64
			for _, ls := range stats {
				events += ls.Events
			}
			if windows != w.windows || events != w.events || rep.Time != w.time || rep.MemHash != w.memHash {
				t.Errorf("%d nodes, workers=%d: windows=%d events=%d time=%d MemHash=%#x, want %d %d %d %#x",
					w.nodes, workers, windows, events, rep.Time, rep.MemHash,
					w.windows, w.events, w.time, w.memHash)
			}
		}
	}
}

// TestLaneObsIdentity runs with the metrics registry attached at two
// worker counts and compares the folded per-node counters.
func TestLaneObsIdentity(t *testing.T) {
	run := func(lanes int) Report {
		cfg := laneCfg(4, 2, lanes)
		cfg.Obs = obs.New(cfg.Nodes)
		return runLaneWorkload(t, cfg)
	}
	r1, rN := run(1), run(4)
	m1, mN := r1.Obs, rN.Obs
	for node := 0; node < 4; node++ {
		a, b := m1.Node(node), mN.Node(node)
		if a != b {
			t.Errorf("node %d counters differ:\nlanes=1: %+v\nlanes=4: %+v", node, a, b)
		}
	}
}

// TestLaneCrashRecoveryIdentity arms a crash-stop/restart plan under
// lane mode (which switches the kernel to the relaxed single-worker
// regime) and checks that recovery completes and that the outcome is
// independent of the requested worker count. (Lane mode is its own
// deterministic schedule, not legacy's: the tasking runtime swaps load
// gossip for the quiescence vote, so legacy reports differ.)
func TestLaneCrashRecoveryIdentity(t *testing.T) {
	run := func(lanes int) Report {
		cfg := laneCfg(4, 1, lanes)
		cfg.Crash = &hlrc.CrashPlan{Events: []hlrc.CrashEvent{
			{Node: 1, Barrier: 2, Restart: true},
		}}
		return runLaneWorkload(t, cfg)
	}
	r1 := run(1)
	if r1.Counters.Crashes != 1 || r1.Counters.NodeRestarts != 1 {
		t.Fatalf("crash plan did not execute: crashes=%d restarts=%d",
			r1.Counters.Crashes, r1.Counters.NodeRestarts)
	}
	rN := run(4)
	reportsEqual(t, r1, rN, "lanes=1", "lanes=4")
}
