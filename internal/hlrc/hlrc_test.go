package hlrc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/obs"
	"parade/internal/sim"
	"parade/internal/stats"
)

// testCluster wires an engine to a simulated network with one
// communication daemon per node, mirroring what the ParADE runtime does.
type testCluster struct {
	s    *sim.Simulator
	e    *Engine
	c    *stats.Counters
	cpus []*sim.CPU
}

func newTestCluster(nodes int, migration bool) *testCluster {
	return newClusterWith(Config{
		Nodes: nodes, ShmBytes: 1 << 20,
		HomeMigration: migration, Strategy: dsm.FileMapping,
	}, false)
}

// newClusterWith builds a cluster for cfg; crashFabric arms the
// crash-only fault plane a crash plan needs.
func newClusterWith(cfg Config, crashFabric bool) *testCluster {
	nodes := cfg.Nodes
	s := sim.New(1)
	cpus := make([]*sim.CPU, nodes)
	for i := range cpus {
		cpus[i] = sim.NewCPU(s, 2, 0)
	}
	c := &stats.Counters{}
	net := netsim.New(s, nodes, netsim.VIA(), cpus, c)
	if crashFabric {
		net.EnableFaults(netsim.ProfileCrashOnly(1))
	}
	e := New(s, net, cpus, cfg, c)
	for n := 0; n < nodes; n++ {
		n := n
		s.SpawnDaemon(fmt.Sprintf("comm%d", n), func(p *sim.Proc) {
			for {
				m := net.Inbox(n).Pop(p)
				net.RecvCost(p, n)
				e.Handle(p, n, m)
			}
		})
	}
	return &testCluster{s: s, e: e, c: c, cpus: cpus}
}

// run drives the simulation to completion and folds the counter
// registry, so tc.c reads as the run's totals.
func (tc *testCluster) run() error {
	err := tc.s.Run()
	tc.live()
	return err
}

// live folds the registry and returns the totals so far. tc.c is only
// the fold destination: a body that reads a count while the simulation
// is still running must go through live, or it compares 0 with 0.
func (tc *testCluster) live() *stats.Counters { return tc.e.counters.Fold() }

// spawnNodes runs body once per node on its own process and drives the
// simulation to completion.
func (tc *testCluster) spawnNodes(t *testing.T, body func(p *sim.Proc, node int)) {
	t.Helper()
	for n := 0; n < tc.e.cfg.Nodes; n++ {
		n := n
		tc.s.Spawn(fmt.Sprintf("app%d", n), func(p *sim.Proc) { body(p, n) })
	}
	if err := tc.run(); err != nil {
		t.Fatal(err)
	}
}

// write and read are application accesses, through the node's TLB.
func (tc *testCluster) write(p *sim.Proc, node, addr int, v float64) {
	tc.e.Store(p, node, addr, math.Float64bits(v))
}

func (tc *testCluster) read(p *sim.Proc, node, addr int) float64 {
	return math.Float64frombits(tc.e.Load(p, node, addr))
}

func TestRemoteReadFetchesFromHome(t *testing.T) {
	tc := newTestCluster(2, true)
	got := -1.0
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 0 {
			tc.write(p, 0, 64, 42.5) // master is home, writes in place
		}
		tc.e.Barrier(p, node)
		if node == 1 {
			got = tc.read(p, 1, 64)
		}
		tc.e.Barrier(p, node)
	})
	if got != 42.5 {
		t.Fatalf("remote read = %v, want 42.5", got)
	}
	if tc.c.PageFetches != 1 {
		t.Fatalf("PageFetches = %d, want 1", tc.c.PageFetches)
	}
}

func TestSecondReadHitsLocally(t *testing.T) {
	tc := newTestCluster(2, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 0 {
			tc.write(p, 0, 0, 1)
		}
		tc.e.Barrier(p, node)
		if node == 1 {
			tc.read(p, 1, 0)
			before := tc.live().ReadFaults
			if before == 0 {
				t.Errorf("first read did not fault")
			}
			tc.read(p, 1, 8) // same page
			if tc.live().ReadFaults != before {
				t.Errorf("second read faulted")
			}
		}
		tc.e.Barrier(p, node)
	})
	if tc.c.PageFetches != 1 {
		t.Fatalf("PageFetches = %d", tc.c.PageFetches)
	}
}

func TestTwinOnlyOnNonHomeWrites(t *testing.T) {
	tc := newTestCluster(2, false)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 0 {
			tc.write(p, 0, 0, 1) // home write: no twin
		}
		tc.e.Barrier(p, node)
		if node == 1 {
			tc.write(p, 1, 0, 2) // remote write: fetch + twin
		}
		tc.e.Barrier(p, node)
	})
	if tc.c.TwinsCreated != 1 {
		t.Fatalf("TwinsCreated = %d, want 1 (only the non-home write)", tc.c.TwinsCreated)
	}
}

func TestDiffPropagatesToHomeAndThirdNode(t *testing.T) {
	tc := newTestCluster(3, false)
	var got float64
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.write(p, 1, 128, 7.25)
		}
		tc.e.Barrier(p, node)
		if node == 2 {
			got = tc.read(p, 2, 128)
		}
		tc.e.Barrier(p, node)
	})
	if got != 7.25 {
		t.Fatalf("third node read %v, want 7.25", got)
	}
	if tc.c.DiffsCreated < 1 || tc.c.DiffsApplied < 1 {
		t.Fatalf("diffs: created=%d applied=%d", tc.c.DiffsCreated, tc.c.DiffsApplied)
	}
}

func TestMultiWriterMerge(t *testing.T) {
	// Two nodes write disjoint words of the same page in one interval;
	// HLRC merges both diffs at the home.
	tc := newTestCluster(3, true)
	var a, b float64
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		switch node {
		case 1:
			tc.write(p, 1, 0, 1.5)
		case 2:
			tc.write(p, 2, 8, 2.5)
		}
		tc.e.Barrier(p, node)
		if node == 0 {
			a = tc.read(p, 0, 0)
			b = tc.read(p, 0, 8)
		}
		tc.e.Barrier(p, node)
	})
	if a != 1.5 || b != 2.5 {
		t.Fatalf("merged page reads %v,%v want 1.5,2.5", a, b)
	}
}

func TestHomeMigratesToSoleModifier(t *testing.T) {
	tc := newTestCluster(2, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.write(p, 1, 0, 3)
		}
		tc.e.Barrier(p, node)
	})
	if tc.c.HomeMigrations != 1 {
		t.Fatalf("HomeMigrations = %d, want 1", tc.c.HomeMigrations)
	}
	for n := 0; n < 2; n++ {
		if h := tc.e.Table(n).Peek(0).Home; h != 1 {
			t.Fatalf("node %d directory says home=%d, want 1", n, h)
		}
	}
}

func TestNoMigrationWhenDisabled(t *testing.T) {
	tc := newTestCluster(2, false)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.write(p, 1, 0, 3)
		}
		tc.e.Barrier(p, node)
	})
	if tc.c.HomeMigrations != 0 {
		t.Fatalf("HomeMigrations = %d, want 0", tc.c.HomeMigrations)
	}
	if h := tc.e.Table(0).Peek(0).Home; h != 0 {
		t.Fatalf("home moved to %d with migration disabled", h)
	}
}

func TestMigrationEliminatesRepeatDiffs(t *testing.T) {
	// A node repeatedly modifying the same page should stop producing
	// diffs once it becomes the home (the paper's locality argument).
	run := func(migration bool) int64 {
		tc := newTestCluster(2, migration)
		tc.spawnNodes(t, func(p *sim.Proc, node int) {
			for iter := 0; iter < 5; iter++ {
				if node == 1 {
					tc.write(p, 1, 0, float64(iter))
				}
				tc.e.Barrier(p, node)
			}
		})
		return tc.c.DiffsCreated
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("diffs with migration %d, without %d — migration should reduce them", with, without)
	}
	if with != 1 {
		t.Fatalf("with migration want exactly 1 diff (first interval), got %d", with)
	}
}

func TestMultipleModifiersKeepCurrentHome(t *testing.T) {
	tc := newTestCluster(3, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 || node == 2 {
			tc.write(p, node, int(node)*8, float64(node))
		}
		tc.e.Barrier(p, node)
	})
	if tc.c.HomeMigrations != 0 {
		t.Fatalf("HomeMigrations = %d; multi-writer page must stay at current home", tc.c.HomeMigrations)
	}
	if h := tc.e.Table(1).Peek(0).Home; h != 0 {
		t.Fatalf("home = %d, want 0", h)
	}
}

func TestSoleModifierKeepsCopyWithoutMigration(t *testing.T) {
	tc := newTestCluster(2, false)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.write(p, 1, 0, 9)
		}
		tc.e.Barrier(p, node)
		if node == 1 {
			before := tc.live().ReadFaults
			if v := tc.read(p, 1, 0); v != 9 {
				t.Errorf("sole modifier lost its value: %v", v)
			}
			if tc.live().ReadFaults != before {
				t.Errorf("sole modifier re-faulted on its own page")
			}
		}
		tc.e.Barrier(p, node)
	})
}

func TestInvalidationOnCoherenceMiss(t *testing.T) {
	tc := newTestCluster(2, false)
	var second float64
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.read(p, 1, 0) // cache the page
		}
		tc.e.Barrier(p, node)
		if node == 0 {
			tc.write(p, 0, 0, 5) // home modifies
		}
		tc.e.Barrier(p, node) // write notice must invalidate node 1's copy
		if node == 1 {
			second = tc.read(p, 1, 0)
		}
		tc.e.Barrier(p, node)
	})
	if second != 5 {
		t.Fatalf("stale read %v after invalidation, want 5", second)
	}
	if tc.c.Invalidations < 1 {
		t.Fatalf("Invalidations = %d", tc.c.Invalidations)
	}
}

// A fetch-reply frame is taken at the home and released at the
// requester, so a home that only serves pages must still get frames
// back: fresh frames are bounded by the fetches in flight, not by the
// fetches served.
func TestServedFetchesRecycleFrames(t *testing.T) {
	const nodes, rounds = 4, 50
	tc := newTestCluster(nodes, false)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for r := 0; r < rounds; r++ {
			if node == 0 {
				tc.write(p, 0, 0, float64(r)) // the home writes in place
			}
			tc.e.Barrier(p, node) // the write notice invalidates the readers
			if node != 0 {
				if got := tc.read(p, node, 0); got != float64(r) {
					t.Errorf("round %d node %d read %v", r, node, got)
				}
			}
			tc.e.Barrier(p, node)
		}
	})
	if want := int64(rounds * (nodes - 1)); tc.c.PageFetches != want {
		t.Fatalf("PageFetches = %d, want %d", tc.c.PageFetches, want)
	}
	if fresh := tc.e.frames.Gets - tc.e.frames.Hits; fresh > nodes-1 {
		t.Fatalf("%d fresh frames for %d fetches, want at most %d (the fetches in flight)",
			fresh, tc.c.PageFetches, nodes-1)
	}
}

func TestConcurrentFaultsOnePageOneFetch(t *testing.T) {
	// The atomic-page-update scenario: two threads of one node fault on
	// the same page; TRANSIENT/BLOCKED must funnel them into one fetch.
	tc := newTestCluster(2, true)
	vals := make([]float64, 2)
	done := 0
	for th := 0; th < 2; th++ {
		th := th
		tc.s.Spawn(fmt.Sprintf("t%d", th), func(p *sim.Proc) {
			vals[th] = tc.read(p, 1, 0)
			done++
		})
	}
	// Node 0 just parks at a barrier-free script; give node 1's threads a
	// page to fetch by pre-seeding master memory directly (home path).
	tc.e.Mem(0).WriteF64(0, 11)
	if err := tc.run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 || vals[0] != 11 || vals[1] != 11 {
		t.Fatalf("threads read %v", vals)
	}
	if tc.c.PageFetches != 1 {
		t.Fatalf("PageFetches = %d, want 1 (one fetch for both threads)", tc.c.PageFetches)
	}
	if tc.c.ReadFaults != 2 {
		t.Fatalf("ReadFaults = %d, want 2", tc.c.ReadFaults)
	}
}

func TestLockMutualExclusionAcrossNodes(t *testing.T) {
	const lock = 3
	tc := newTestCluster(4, false)
	inside, peak := 0, 0
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for i := 0; i < 3; i++ {
			tc.e.AcquireLock(p, node, lock)
			inside++
			if inside > peak {
				peak = inside
			}
			p.Sleep(100 * sim.Microsecond)
			inside--
			tc.e.ReleaseLock(p, node, lock)
		}
	})
	if peak != 1 {
		t.Fatalf("peak holders = %d", peak)
	}
	if tc.c.LockRequests != 12 {
		t.Fatalf("LockRequests = %d, want 12", tc.c.LockRequests)
	}
}

func TestLockProtectedCounterIsCoherent(t *testing.T) {
	// The classic SDSM critical section: each node increments a shared
	// counter under the lock; grants carry write notices so acquirers
	// refetch the page.
	const lock = 0
	const addr = 256
	const perNode = 4
	tc := newTestCluster(4, false)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for i := 0; i < perNode; i++ {
			tc.e.AcquireLock(p, node, lock)
			v := tc.read(p, node, addr)
			tc.write(p, node, addr, v+1)
			tc.e.ReleaseLock(p, node, lock)
		}
		tc.e.Barrier(p, node)
	})
	// After the final barrier every node can read the total.
	tc2 := tc.e.Mem(0).ReadF64(addr)
	if tc2 != 16 {
		t.Fatalf("counter = %v, want 16", tc2)
	}
}

func TestLockGrantInvalidatesNoticedPages(t *testing.T) {
	const lock = 1
	tc := newTestCluster(2, false)
	var seen float64
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 0 {
			tc.e.AcquireLock(p, node, lock)
			tc.write(p, 0, 512, 99)
			tc.e.ReleaseLock(p, node, lock)
			tc.e.Barrier(p, node)
		} else {
			tc.read(p, 1, 512) // cache the page (may be pre-modification)
			tc.e.Barrier(p, node)
			tc.e.AcquireLock(p, node, lock)
			seen = tc.read(p, 1, 512)
			tc.e.ReleaseLock(p, node, lock)
		}
	})
	_ = seen
	if seen != 99 {
		t.Fatalf("acquirer read %v, want 99", seen)
	}
}

func TestBarrierCountsAndWriteNotices(t *testing.T) {
	tc := newTestCluster(4, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		tc.write(p, node, node*dsm.PageSize, 1) // each node its own page
		tc.e.Barrier(p, node)
	})
	if tc.c.Barriers != 1 {
		t.Fatalf("Barriers = %d", tc.c.Barriers)
	}
	if tc.c.WriteNotices != 4 {
		t.Fatalf("WriteNotices = %d, want 4", tc.c.WriteNotices)
	}
}

func TestBarrierLatencyGrowsWithNodes(t *testing.T) {
	run := func(nodes int) sim.Time {
		tc := newTestCluster(nodes, true)
		tc.spawnNodes(t, func(p *sim.Proc, node int) {
			tc.e.Barrier(p, node)
		})
		return tc.s.Now()
	}
	t2, t8 := run(2), run(8)
	if t8 <= t2 {
		t.Fatalf("barrier with 8 nodes (%v) not slower than 2 nodes (%v)", t8, t2)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (sim.Time, stats.Counters) {
		tc := newTestCluster(4, true)
		tc.spawnNodes(t, func(p *sim.Proc, node int) {
			for i := 0; i < 3; i++ {
				tc.write(p, node, (node*7+i)*128, float64(node+i))
				tc.e.Barrier(p, node)
				tc.read(p, node, ((node+1)%4*7+i)*128)
				tc.e.Barrier(p, node)
			}
		})
		return tc.s.Now(), *tc.c
	}
	time1, c1 := run()
	time2, c2 := run()
	if time1 != time2 {
		t.Fatalf("times differ: %v vs %v", time1, time2)
	}
	if c1 != c2 {
		t.Fatalf("counters differ:\n%s\n%s", c1.String(), c2.String())
	}
}

func TestSingleNodeBarrierIsCheap(t *testing.T) {
	tc := newTestCluster(1, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		tc.write(p, 0, 0, 1)
		tc.e.Barrier(p, node)
	})
	// One node: arrival + departure are loopback messages only.
	if tc.c.Messages != 0 {
		t.Fatalf("single-node barrier used %d network messages", tc.c.Messages)
	}
}

func TestPageReportTracksHotPages(t *testing.T) {
	tc := newTestCluster(3, true)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for round := 0; round < 4; round++ {
			if node == 0 {
				tc.write(p, 0, 0, float64(round)) // page 0 ping-pongs
			}
			tc.e.Barrier(p, node)
			tc.read(p, node, 0)
			tc.e.Barrier(p, node)
		}
		if node == 1 {
			tc.write(p, 1, 5*dsm.PageSize, 1) // page 5 migrates once
		}
		tc.e.Barrier(p, node)
	})
	report := tc.e.PageReport(0)
	if len(report) == 0 {
		t.Fatal("empty page report")
	}
	if report[0].Page != 0 {
		t.Fatalf("hottest page = %d, want 0 (report %+v)", report[0].Page, report)
	}
	var pg5 *PageStat
	for i := range report {
		if report[i].Page == 5 {
			pg5 = &report[i]
		}
	}
	if pg5 == nil || pg5.Migrations != 1 || pg5.Home != 1 {
		t.Fatalf("page 5 stats %+v", pg5)
	}
	out := RenderPageReport(report)
	if !strings.Contains(out, "fetches") {
		t.Fatalf("render missing header:\n%s", out)
	}
}

func TestProtocolTrace(t *testing.T) {
	tc := newTestCluster(2, true)
	var buf strings.Builder
	rec := obs.New(2)
	rec.AddSink(obs.NewTextSink(&buf))
	tc.e.SetRecorder(rec)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.write(p, 1, 0, 1)
		}
		tc.e.Barrier(p, node)
		if node == 0 {
			tc.read(p, 0, 0)
		}
		tc.e.Barrier(p, node)
	})
	out := buf.String()
	for _, want := range []string{"write fault", "read fault", "home migrates 0 -> 1", "barrier 0: complete", "flush"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}
