package core

import (
	"math/rand"
	"testing"

	"parade/internal/sim"
)

// Executable versions of the paper's §7 programming guidelines: each
// test demonstrates, with protocol counters, why the guideline holds.

// §7: "we can annotate local variables as private, read-only shared
// variables as firstprivate" — a replicated local costs nothing, while
// reading the same value through shared memory faults a page per node.
func TestGuidelineFirstprivateBeatsSharedScalar(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: true}

	// Shared-memory version: every node reads the parameter's page.
	shared := run(t, cfg, func(m *Thread) {
		p := m.Cluster().AllocF64(1)
		p.Set(m, 0, 3.14)
		m.Parallel(func(tc *Thread) {
			_ = p.Get(tc, 0)
		})
	})
	// Firstprivate version: the value travels in the program image.
	private := run(t, cfg, func(m *Thread) {
		p := 3.14
		m.Parallel(func(tc *Thread) {
			_ = p
		})
	})
	if private.Counters.PageFetches >= shared.Counters.PageFetches {
		t.Fatalf("firstprivate fetched %d pages, shared %d — guideline violated",
			private.Counters.PageFetches, shared.Counters.PageFetches)
	}
}

// §7: "applications like equation solver repeating iterations until
// satisfying a certain termination condition take significant advantage
// of explicit message-passing primitives" — the reduction clause beats a
// critical-guarded shared accumulator checked after a barrier.
func TestGuidelineReductionBeatsLockedTerminationCheck(t *testing.T) {
	const iters = 20
	cfg := Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: true}

	measure := func(useReduction bool) sim.Duration {
		var start, end sim.Time
		mode := cfg
		if !useReduction {
			mode.Mode = SDSM // conventional lowering for every directive
		}
		_, err := Run(mode, func(m *Thread) {
			m.Parallel(func(tc *Thread) {}) // warm
			m.Parallel(func(tc *Thread) {
				tc.Master(func() { start = tc.Now() })
				for k := 0; k < iters; k++ {
					_ = tc.Reduce("err", OpSum, 1.0)
				}
				tc.Master(func() { end = tc.Now() })
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(end - start)
	}
	hybrid, conventional := measure(true), measure(false)
	if hybrid >= conventional {
		t.Fatalf("hybrid termination check %v not faster than conventional %v", hybrid, conventional)
	}
}

// §7: "we can reduce the number of shared pages by declaring the arrays
// used temporarily to store intermediate values as local variables
// within a parallel block" — a private scratch buffer causes no page
// traffic, a shared one invalidates and refetches every interval.
func TestGuidelinePrivateScratchArrays(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: true}
	const n = 4096

	sharedScratch := run(t, cfg, func(m *Thread) {
		in := m.Cluster().AllocF64(n)
		scratch := m.Cluster().AllocF64(n)
		m.Parallel(func(tc *Thread) {
			for iter := 0; iter < 3; iter++ {
				// Shifted ranges force cross-node scratch sharing.
				lo, hi := tc.StaticRange(0, n)
				for i := lo; i < hi; i++ {
					scratch.Set(tc, (i+n/2)%n, in.Get(tc, i)+1)
				}
				tc.Barrier()
				for i := lo; i < hi; i++ {
					in.Set(tc, i, scratch.Get(tc, i))
				}
				tc.Barrier()
			}
		})
	})
	privateScratch := run(t, cfg, func(m *Thread) {
		in := m.Cluster().AllocF64(n)
		m.Parallel(func(tc *Thread) {
			scratch := make([]float64, n) // private per thread
			for iter := 0; iter < 3; iter++ {
				lo, hi := tc.StaticRange(0, n)
				for i := lo; i < hi; i++ {
					scratch[(i+n/2)%n] = in.Get(tc, i) + 1
				}
				tc.Barrier()
				for i := lo; i < hi; i++ {
					in.Set(tc, i, scratch[i])
				}
				tc.Barrier()
			}
		})
	})
	if privateScratch.Counters.DiffBytes >= sharedScratch.Counters.DiffBytes {
		t.Fatalf("private scratch moved %d diff bytes, shared %d — guideline violated",
			privateScratch.Counters.DiffBytes, sharedScratch.Counters.DiffBytes)
	}
}

// §7: "programmers are guided to use the reduction clause or the atomic
// directive instead of the critical directive" for non-analyzable
// blocks — an analyzable accumulation via Atomic avoids every lock.
func TestGuidelineAtomicOverOpaqueCritical(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: true}
	atomic := run(t, cfg, func(m *Thread) {
		s := m.Cluster().ScalarVar("x")
		m.Parallel(func(tc *Thread) {
			for i := 0; i < 10; i++ {
				tc.Atomic(s, 1)
			}
		})
	})
	opaque := run(t, cfg, func(m *Thread) {
		s := m.Cluster().ScalarVar("x")
		m.Parallel(func(tc *Thread) {
			for i := 0; i < 10; i++ {
				// nil scalars: the translator could not analyze the block.
				tc.Critical("x", nil, func() { s.Set(tc, s.Get(tc)+1) })
			}
		})
	})
	if atomic.Counters.LockRequests != 0 {
		t.Fatalf("atomic path took %d locks", atomic.Counters.LockRequests)
	}
	if opaque.Counters.LockRequests == 0 {
		t.Fatal("opaque critical took no locks")
	}
	if atomic.Time >= opaque.Time {
		t.Fatalf("atomic %v not faster than opaque critical %v", atomic.Time, opaque.Time)
	}
}

// Randomized end-to-end oracle at the runtime level with multi-threaded
// nodes: threads write disjoint random slices of a shared array between
// barriers; after each barrier every thread must observe the union of
// all writes. Exercises the full stack (fork-join, node-local barriers,
// HLRC, multi-writer pages) under node-level thread concurrency.
func TestRuntimeRandomizedOracle(t *testing.T) {
	cfg := Config{Nodes: 3, ThreadsPerNode: 2, HomeMigration: true}
	const (
		n      = 2048
		rounds = 6
	)
	rng := rand.New(rand.NewSource(99))
	// writes[r][gid] = map idx -> val; idx space partitioned per round by
	// rotating ownership so pages change writers.
	writes := make([]map[int]map[int]float64, rounds)
	oracle := make([]map[int]float64, rounds)
	acc := map[int]float64{}
	for r := range writes {
		writes[r] = map[int]map[int]float64{}
		for gid := 0; gid < 6; gid++ {
			writes[r][gid] = map[int]float64{}
		}
		for k := 0; k < 300; k++ {
			idx := rng.Intn(n)
			owner := (idx + r) % 6
			val := float64(rng.Intn(1 << 16))
			writes[r][owner][idx] = val
		}
		for _, byGid := range writes[r] {
			for idx, val := range byGid {
				acc[idx] = val
			}
		}
		snap := make(map[int]float64, len(acc))
		for k, v := range acc {
			snap[k] = v
		}
		oracle[r] = snap
	}

	mismatches := 0
	run(t, cfg, func(m *Thread) {
		a := m.Cluster().AllocF64(n)
		m.Parallel(func(tc *Thread) {
			for r := 0; r < rounds; r++ {
				for idx, val := range writes[r][tc.GID()] {
					a.Set(tc, idx, val)
				}
				tc.Barrier()
				// Sample 50 random-but-deterministic indices.
				h := uint32(tc.GID())*2654435761 + uint32(r)*40503
				for k := 0; k < 50; k++ {
					h = h*1664525 + 1013904223
					idx := int(h % uint32(n))
					want := oracle[r][idx]
					if a.Get(tc, idx) != want {
						mismatches++
					}
				}
				tc.Barrier()
			}
		})
	})
	if mismatches != 0 {
		t.Fatalf("%d oracle mismatches", mismatches)
	}
}
