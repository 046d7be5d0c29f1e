package core

import (
	"errors"
	"fmt"
	"testing"

	"parade/internal/netsim"
	"parade/internal/sim"
)

// orderLog records task completion order.
type orderLog struct {
	seq  int64
	slot []int64
}

func newOrderLog(n int) *orderLog { return &orderLog{slot: make([]int64, n)} }

func (l *orderLog) mark(i int) { l.seq++; l.slot[i] = l.seq }

func (l *orderLog) before(a, b int) bool { return l.slot[a] < l.slot[b] }

// TestDependChainSerializes checks a write-after-write chain: three
// tasks with Out deps on the same handle run in spawn order even with
// compute costs arranged to invert it under free scheduling.
func TestDependChainSerializes(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	log := newOrderLog(3)
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				h := DepName("chain")
				for k := 0; k < 3; k++ {
					k := k
					tc.Task(func(ex *Thread) float64 {
						// Earlier links cost more: without edges the chain
						// would complete in reverse.
						ex.Compute(sim.Duration(3-k) * 200 * sim.Microsecond)
						log.mark(k)
						return 1
					}, WithDepend(Out, h))
				}
			}
			tc.Taskwait()
		})
	})
	if !log.before(0, 1) || !log.before(1, 2) {
		t.Fatalf("chain ran out of order: slots=%v", log.slot)
	}
}

// TestDependDiamond checks the diamond: one producer, two parallel
// readers, one consumer that waits for both.
func TestDependDiamond(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2}
	log := newOrderLog(4)
	rep := run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				h := DepName("d")
				tc.Task(func(ex *Thread) float64 {
					ex.Compute(300 * sim.Microsecond)
					log.mark(0)
					return 1
				}, WithDepend(Out, h))
				for k := 1; k <= 2; k++ {
					k := k
					tc.Task(func(ex *Thread) float64 {
						ex.Compute(100 * sim.Microsecond)
						log.mark(k)
						return 1
					}, WithDepend(In, h))
				}
				tc.Task(func(ex *Thread) float64 {
					log.mark(3)
					return 1
				}, WithDepend(Out, h))
			}
			if got := tc.Taskwait(); got != 4 {
				t.Errorf("Taskwait() = %v, want 4", got)
			}
		})
	})
	for _, mid := range []int{1, 2} {
		if !log.before(0, mid) || !log.before(mid, 3) {
			t.Fatalf("diamond violated: slots=%v", log.slot)
		}
	}
	if rep.Counters.TasksReleased < 3 {
		t.Fatalf("TasksReleased = %d, want >= 3 (readers + sink held)", rep.Counters.TasksReleased)
	}
	if rep.Counters.TaskDepsResolved == 0 {
		t.Fatal("TaskDepsResolved = 0, want > 0")
	}
}

// TestDependIndependentHandlesDoNotSerialize checks that tasks on
// disjoint handles carry no edges: all spawn ready.
func TestDependIndependentHandlesDoNotSerialize(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	rep := run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				for k := 0; k < 8; k++ {
					h := DepName(fmt.Sprintf("solo%d", k))
					tc.Task(func(ex *Thread) float64 { return 1 }, WithDepend(Out, h))
				}
			}
			tc.Taskwait()
		})
	})
	if rep.Counters.TasksReleased != 0 {
		t.Fatalf("TasksReleased = %d, want 0 (no task should ever be held)",
			rep.Counters.TasksReleased)
	}
}

// TestDependDuplicateHandlesDedup checks that repeating a handle in one
// clause list creates one edge, and that In+Out on the same handle in
// one task collapses to inout rather than double-counting.
func TestDependDuplicateHandlesDedup(t *testing.T) {
	cfg := Config{Nodes: 1, ThreadsPerNode: 1}
	h := DepName("dup")
	rep := run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			tc.Task(func(ex *Thread) float64 { return 1 }, WithDepend(Out, h))
			tc.Task(func(ex *Thread) float64 { return 1 },
				WithDepend(In, h, h, h), WithDepend(Out, h))
			tc.Taskwait()
		})
	})
	// One edge writer->reader, so exactly one resolution and one release.
	if rep.Counters.TaskDepsResolved != 1 || rep.Counters.TasksReleased != 1 {
		t.Fatalf("deps_resolved=%d released=%d, want 1 and 1",
			rep.Counters.TaskDepsResolved, rep.Counters.TasksReleased)
	}
}

// TestDependAddrHandles checks address-based dependence on shared-array
// elements: writer then reader on the same element serialize; a
// different element does not.
func TestDependAddrHandles(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	log := newOrderLog(2)
	rep := run(t, cfg, func(m *Thread) {
		c := m.Cluster()
		a := c.AllocF64(64)
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				tc.Task(func(ex *Thread) float64 {
					ex.Compute(200 * sim.Microsecond)
					a.Set(ex, 3, 7)
					log.mark(0)
					return 0
				}, WithDepend(Out, DepAddr(a.Addr(3))))
				tc.Task(func(ex *Thread) float64 {
					log.mark(1)
					return a.Get(ex, 3)
				}, WithDepend(In, DepAddr(a.Addr(3))))
			}
			if got := tc.Taskwait(); got != 7 {
				t.Errorf("Taskwait() = %v, want 7", got)
			}
		})
	})
	if !log.before(0, 1) {
		t.Fatalf("reader ran before writer: slots=%v", log.slot)
	}
	if rep.Counters.TasksReleased != 1 {
		t.Fatalf("TasksReleased = %d, want 1", rep.Counters.TasksReleased)
	}
}

// TestDependTaskForwardReference checks DepTask on a name registered
// only by a later sibling: the waiter stays pending until registration
// and completion, and a name never registered resolves vacuously at the
// join instead of deadlocking.
func TestDependTaskForwardReference(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	log := newOrderLog(2)
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				tc.Task(func(ex *Thread) float64 {
					log.mark(1)
					return 1
				}, WithDepend(In, DepTask("late")))
				tc.Task(func(ex *Thread) float64 {
					ex.Compute(200 * sim.Microsecond)
					log.mark(0)
					return 1
				}, WithTaskName("late"))
				// Dangling: no sibling ever registers "ghost"; Taskwait must
				// release this vacuously rather than hang.
				tc.Task(func(ex *Thread) float64 { return 1 },
					WithDepend(In, DepTask("ghost")))
			}
			if got := tc.Taskwait(); got != 3 {
				t.Errorf("Taskwait() = %v, want 3", got)
			}
		})
	})
	if !log.before(0, 1) {
		t.Fatalf("waiter ran before the named task: slots=%v", log.slot)
	}
}

// TestDependPriorityOrdersReadyQueue checks that among simultaneously
// ready tasks on one node, higher WithPriority values run first.
func TestDependPriorityOrdersReadyQueue(t *testing.T) {
	cfg := Config{Nodes: 1, ThreadsPerNode: 1}
	log := newOrderLog(3)
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			for k := 0; k < 3; k++ {
				k := k
				tc.Task(func(ex *Thread) float64 {
					log.mark(k)
					return 1
				}, WithPriority(k))
			}
			tc.Taskwait()
		})
	})
	// Single node, single thread: the local pop takes highest priority
	// first, so completion order is 2, 1, 0.
	if !log.before(2, 1) || !log.before(1, 0) {
		t.Fatalf("priority ignored: slots=%v", log.slot)
	}
}

// TestDependCycleRejected table-drives cyclic and self-referential
// depend sets: each aborts the run with a typed *TaskCycleError instead
// of deadlocking.
func TestDependCycleRejected(t *testing.T) {
	cases := []struct {
		name    string
		program func(tc *Thread)
	}{
		{"self", func(tc *Thread) {
			tc.Task(func(ex *Thread) float64 { return 0 },
				WithTaskName("me"), WithDepend(In, DepTask("me")))
		}},
		{"two-cycle", func(tc *Thread) {
			tc.Task(func(ex *Thread) float64 { return 0 },
				WithTaskName("a"), WithDepend(In, DepTask("b")))
			tc.Task(func(ex *Thread) float64 { return 0 },
				WithTaskName("b"), WithDepend(In, DepTask("a")))
		}},
		{"three-cycle", func(tc *Thread) {
			tc.Task(func(ex *Thread) float64 { return 0 },
				WithTaskName("a"), WithDepend(In, DepTask("c")))
			tc.Task(func(ex *Thread) float64 { return 0 },
				WithTaskName("b"), WithDepend(In, DepTask("a")))
			tc.Task(func(ex *Thread) float64 { return 0 },
				WithTaskName("c"), WithDepend(In, DepTask("b")))
		}},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			cfg := Config{Nodes: 2, ThreadsPerNode: 1}
			_, err := Run(cfg, func(m *Thread) {
				m.Parallel(func(tc *Thread) {
					if tc.GID() == 0 {
						cse.program(tc)
					}
					tc.Taskwait()
				})
			})
			var cyc *TaskCycleError
			if !errors.As(err, &cyc) {
				t.Fatalf("Run error = %v, want a *TaskCycleError", err)
			}
			if cyc.Name == "" {
				t.Fatal("TaskCycleError.Name is empty")
			}
		})
	}
}

// TestDependNestedContexts checks that a task's children form their own
// dependence context: a child chain serializes within the parent while
// the parent's siblings stay unaffected, and the parent's implicit join
// resolves dangling child names.
func TestDependNestedContexts(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	log := newOrderLog(2)
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				tc.Task(func(ex *Thread) float64 {
					h := DepName("inner")
					ex.Task(func(e2 *Thread) float64 {
						e2.Compute(200 * sim.Microsecond)
						log.mark(0)
						return 1
					}, WithDepend(Out, h))
					ex.Task(func(e2 *Thread) float64 {
						log.mark(1)
						return 1
					}, WithDepend(In, h))
					// A dangling forward reference in the child context: the
					// parent's completion must resolve it vacuously.
					ex.Task(func(e2 *Thread) float64 { return 1 },
						WithDepend(In, DepTask("never")))
					return 0
				})
			}
			if got := tc.Taskwait(); got != 3 {
				t.Errorf("Taskwait() = %v, want 3", got)
			}
		})
	})
	if !log.before(0, 1) {
		t.Fatalf("child chain out of order: slots=%v", log.slot)
	}
}

// TestTargetPinsToDevice checks that Target tasks execute on the named
// device node regardless of spawner, and that MapTo prefetch plus
// MapFrom refresh move the mapped pages without faulting in the body.
func TestTargetPinsToDevice(t *testing.T) {
	cfg := Config{Nodes: 4, ThreadsPerNode: 1}
	var execNode [4]int64
	rep := run(t, cfg, func(m *Thread) {
		c := m.Cluster()
		a := c.AllocF64(512)
		m.Parallel(func(tc *Thread) {
			tc.For(0, 512, func(i int) { a.Set(tc, i, float64(i)) })
			gid := tc.GID()
			tc.Target(2, func(ex *Thread) float64 {
				execNode[gid] = int64(ex.NodeID())
				return a.Get(ex, gid)
			}, WithMap(MapTo, a))
			if got := tc.Taskwait(); got != 0+1+2+3 {
				t.Errorf("Taskwait() = %v, want 6", got)
			}
		})
	})
	for gid, n := range execNode {
		if n != 2 {
			t.Fatalf("target from gid %d ran on node %d, want 2", gid, n)
		}
	}
	if rep.Counters.TasksStolen != 0 {
		t.Fatalf("pinned tasks were stolen: %s", rep.Counters.String())
	}
}

// TestTargetInvalidDevicePanics checks the range validation. Target
// panics before touching any scheduler state, so the thread recovers
// in place and finishes the region normally.
func TestTargetInvalidDevicePanics(t *testing.T) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 1}
	run(t, cfg, func(m *Thread) {
		m.Parallel(func(tc *Thread) {
			if tc.GID() == 0 {
				func() {
					defer func() {
						if recover() == nil {
							t.Error("Target(7) did not panic on a 2-node cluster")
						}
					}()
					tc.Target(7, func(ex *Thread) float64 { return 0 })
				}()
			}
			tc.Taskwait()
		})
	})
}

// TestHeteroScalesCompute checks the per-node cost multiplier end to
// end: the same serial compute on a 4x node takes 4x simulated time.
func TestHeteroScalesCompute(t *testing.T) {
	elapsed := func(h *netsim.Hetero) sim.Duration {
		var d sim.Duration
		cfg := Config{Nodes: 2, ThreadsPerNode: 1, Hetero: h}
		run(t, cfg, func(m *Thread) {
			m.Parallel(func(tc *Thread) {
				if tc.NodeID() == 1 {
					t0 := tc.Now()
					tc.Compute(100 * sim.Microsecond)
					d = sim.Duration(tc.Now() - t0)
				}
				tc.Barrier()
			})
		})
		return d
	}
	uniform := elapsed(nil)
	slow := elapsed(&netsim.Hetero{Factors: []float64{1, 4}})
	if slow != 4*uniform {
		t.Fatalf("hetero compute on node 1: %v, want 4 * %v", slow, uniform)
	}
}
