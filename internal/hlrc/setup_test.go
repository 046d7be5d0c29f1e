package hlrc

import (
	"runtime"
	"testing"

	"parade/internal/dsm"
	"parade/internal/sim"
)

const (
	pool16  = 16 << 20
	pool256 = 256 << 20
)

// setupBytes returns the bytes New + StateFingerprint allocate for a
// 4-node engine over a pool of shm bytes. TotalAlloc is process-wide, so
// a sample also counts whatever other goroutines allocated meanwhile;
// the minimum of several samples is the engine's own cost.
func setupBytes(shm int, policy string) uint64 {
	best := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tc := newClusterWith(Config{
			Nodes: 4, ShmBytes: shm, HomeMigration: true,
			Strategy: dsm.FileMapping, Policy: policy,
		}, false)
		fingerprintSink = tc.e.StateFingerprint()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

var fingerprintSink uint64

// chunksMaterialized counts the table, memory, page-activity and
// classifier chunks e holds.
func chunksMaterialized(e *Engine) int {
	k := 0
	for base := 0; base < e.nodes[0].table.Len(); base += dsm.ChunkPages {
		for n, ns := range e.nodes {
			for _, there := range []bool{
				ns.table.Materialized(base), ns.mem.Materialized(base), e.pgStats[n].Materialized(base),
			} {
				if there {
					k++
				}
			}
		}
		if e.cls != nil && e.cls.pages.Materialized(base) {
			k++
		}
	}
	return k
}

// TestSetupCostIndependentOfPoolSize: a cell pays for the pages it
// touches, not for the pool. Growing the pool sixteenfold must not grow
// what building and fingerprinting an engine allocates (a dense layout
// grows it by 65 bytes per page and node: 16 MB here).
func TestSetupCostIndependentOfPoolSize(t *testing.T) {
	for _, policy := range []string{PolicyLegacy, PolicyAdaptive} {
		small, large := setupBytes(pool16, policy), setupBytes(pool256, policy)
		// Slack for the odd runtime-internal allocation between the two
		// MemStats reads; the tables themselves contribute nothing.
		t.Logf("policy %q: %d B at 16 MiB, %d B at 256 MiB", policy, small, large)
		if large > small+4096 {
			t.Errorf("policy %q: New+StateFingerprint allocate %d B on a 16 MiB pool but %d B on a 256 MiB pool", policy, small, large)
		}
	}
}

// smallKernel touches a few pages on every node: private writes that
// migrate, neighbour reads, a lock-protected shared counter.
func smallKernel(tc *testCluster) func(p *sim.Proc, node int) {
	nodes := tc.e.cfg.Nodes
	shared := nodes * dsm.PageSize
	return func(p *sim.Proc, node int) {
		for round := 0; round < 3; round++ {
			tc.write(p, node, pageAddr(node), float64(round))
			tc.e.AcquireLock(p, node, 1)
			tc.write(p, node, shared, tc.read(p, node, shared)+1)
			tc.e.ReleaseLock(p, node, 1)
			tc.e.Barrier(p, node)
			tc.read(p, node, pageAddr((node+1)%nodes))
			tc.e.Barrier(p, node)
		}
	}
}

// TestChunksMaterializedIndependentOfPoolSize: after a small kernel —
// fault-free, under the adaptive policy, and through two crash/restart
// recoveries (the second on the node whose buddy ring wraps to the
// master), whose snapshot sweeps walk the whole pool — the number of
// chunks in existence depends on the pages the kernel touched, not on
// the pool.
func TestChunksMaterializedIndependentOfPoolSize(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy string
		plan   *CrashPlan
	}{
		{"fault-free", PolicyLegacy, nil},
		{"adaptive", PolicyAdaptive, nil},
		{"crash-restart", PolicyLegacy, &CrashPlan{Events: []CrashEvent{{Node: 1, Barrier: 3}}}},
		{"crash-restart-wrap", PolicyLegacy, &CrashPlan{Events: []CrashEvent{{Node: 2, Barrier: 2}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var chunks [2]int
			for i, shm := range []int{pool16, pool256} {
				tc := newClusterWith(Config{
					Nodes: 3, ShmBytes: shm, HomeMigration: true,
					Strategy: dsm.FileMapping, Policy: c.policy, Crash: c.plan,
				}, c.plan != nil)
				tc.spawnNodes(t, smallKernel(tc))
				if c.plan != nil && tc.c.Recoveries == 0 {
					t.Fatal("the crash plan never fired")
				}
				chunks[i] = chunksMaterialized(tc.e)
			}
			// One chunk per table kind and node is all this kernel's
			// handful of low pages can need.
			if limit := 3*3 + 1; chunks[0] == 0 || chunks[0] > limit {
				t.Errorf("16 MiB pool: %d chunks materialized, want 1..%d", chunks[0], limit)
			}
			if chunks[1] != chunks[0] {
				t.Errorf("%d chunks on a 16 MiB pool but %d on a 256 MiB pool", chunks[0], chunks[1])
			}
		})
	}
}
