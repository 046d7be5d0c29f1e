package hlrc

import (
	"fmt"
	"testing"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
	"parade/internal/stats"
)

// The fixed cost every cell pays before and after its simulated events:
// building a 4-node engine and fingerprinting its final state. Both run
// on the default 16 MiB pool and on a 256 MiB one — with lazily
// materialized tables the two must read alike.

var benchPools = []struct {
	name string
	shm  int
}{{"16MiB", pool16}, {"256MiB", pool256}}

func BenchmarkEngineNew(b *testing.B) {
	for _, pool := range benchPools {
		b.Run(pool.name, func(b *testing.B) {
			s := sim.New(1)
			cpus := make([]*sim.CPU, 4)
			for i := range cpus {
				cpus[i] = sim.NewCPU(s, 2, 0)
			}
			c := &stats.Counters{}
			net := netsim.New(s, len(cpus), netsim.VIA(), cpus, c)
			cfg := Config{Nodes: len(cpus), ShmBytes: pool.shm, HomeMigration: true, Strategy: dsm.FileMapping}
			b.ReportAllocs()
			b.ResetTimer()
			var e *Engine
			for i := 0; i < b.N; i++ {
				e = New(s, net, cpus, cfg, c)
			}
			if e.nodes[0].table.Len() != pool.shm/dsm.PageSize {
				b.Fatal("engine built over the wrong pool")
			}
		})
	}
}

// touchedCluster is a 4-node cluster after a small kernel: every node
// wrote its own 16-page slice of a 64-page array (so homes migrated and
// hold non-zero frames) and read its neighbour's.
func touchedCluster(b *testing.B, shm int) *testCluster {
	tc := newClusterWith(Config{Nodes: 4, ShmBytes: shm, HomeMigration: true, Strategy: dsm.FileMapping}, false)
	for n := 0; n < 4; n++ {
		n := n
		tc.s.Spawn(fmt.Sprintf("app%d", n), func(p *sim.Proc) {
			for pg := 16 * n; pg < 16*(n+1); pg++ {
				for off := 0; off < dsm.PageSize; off += 512 {
					tc.write(p, n, pg*dsm.PageSize+off, float64(pg+off))
				}
			}
			tc.e.Barrier(p, n)
			for pg := 16 * ((n + 1) % 4); pg < 16*((n+1)%4+1); pg++ {
				tc.read(p, n, pg*dsm.PageSize)
			}
			tc.e.Barrier(p, n)
		})
	}
	if err := tc.s.Run(); err != nil {
		b.Fatal(err)
	}
	return tc
}

func BenchmarkStateFingerprint(b *testing.B) {
	for _, pool := range benchPools {
		b.Run(pool.name, func(b *testing.B) {
			tc := touchedCluster(b, pool.shm)
			want := denseFingerprint(tc.e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fingerprintSink = tc.e.StateFingerprint()
			}
			if fingerprintSink != want {
				b.Fatalf("fingerprint %#x, dense reference %#x", fingerprintSink, want)
			}
		})
	}
}

// BenchmarkSharedAccess is the application access path on valid pages
// — Engine.Load and Engine.Store, four reads per write — which every
// F64Array.Get/Set of every kernel is one call to. The 32 pages fit the
// node's TLB, so after the first pass every access is a hit; this is the
// number that moves if the hit path grows or stops inlining the TLB
// probe.
func BenchmarkSharedAccess(b *testing.B) {
	tc := newTestCluster(2, true)
	const elems = 32 * dsm.PageSize / 8
	tc.s.Spawn("app0", func(p *sim.Proc) {
		for i := 0; i < elems; i++ {
			tc.write(p, 0, 8*i, float64(i))
		}
		b.SetBytes(8 * (elems + elems/4))
		b.ResetTimer()
		sum := 0.0
		for it := 0; it < b.N; it++ {
			for i := 0; i < elems; i++ {
				sum += tc.read(p, 0, 8*i)
			}
			for i := 0; i < elems; i += 4 {
				tc.write(p, 0, 8*i, sum)
			}
		}
		b.StopTimer()
		if sum == 0 {
			b.Error("read nothing back")
		}
	})
	if err := tc.s.Run(); err != nil {
		b.Fatal(err)
	}
}
