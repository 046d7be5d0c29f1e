package hlrc

import (
	"testing"

	"parade/internal/dsm"
	"parade/internal/sim"
	"parade/internal/stats"
)

// newCrashCluster is newTestCluster plus the crash-only fault plane and
// a crash plan (nil plan: armed fabric, inert engine).
func newCrashCluster(nodes int, migration, lockCaching bool, plan *CrashPlan) *testCluster {
	return newClusterWith(Config{
		Nodes: nodes, ShmBytes: 1 << 20,
		HomeMigration: migration, LockCaching: lockCaching,
		Strategy: dsm.FileMapping, Crash: plan,
	}, true)
}

// pageAddr gives each node a private page.
func pageAddr(node int) int { return node * dsm.PageSize }

// TestCrashPlanValidate: the plan's structural invariants.
func TestCrashPlanValidate(t *testing.T) {
	ev := func(node, k int) CrashEvent { return CrashEvent{Node: node, Barrier: k, Restart: true} }
	cases := []struct {
		name  string
		plan  CrashPlan
		nodes int
		ok    bool
	}{
		{"valid", CrashPlan{Events: []CrashEvent{ev(1, 2)}}, 4, true},
		{"valid-repeat", CrashPlan{Events: []CrashEvent{ev(1, 1), ev(1, 3)}}, 4, true},
		{"master", CrashPlan{Events: []CrashEvent{ev(0, 1)}}, 4, false},
		{"out-of-range", CrashPlan{Events: []CrashEvent{ev(4, 1)}}, 4, false},
		{"barrier-zero", CrashPlan{Events: []CrashEvent{ev(1, 0)}}, 4, false},
		{"two-nodes", CrashPlan{Events: []CrashEvent{ev(1, 1), ev(2, 2)}}, 4, false},
		{"single-node-cluster", CrashPlan{Events: []CrashEvent{ev(1, 1)}}, 1, false},
	}
	for _, c := range cases {
		err := c.plan.Validate(c.nodes)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid plan accepted", c.name)
		}
	}
	var nilPlan *CrashPlan
	if err := nilPlan.Validate(4); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
	if nilPlan.Active() {
		t.Error("nil plan active")
	}
}

// restartProg is a 3-node program with home migration, cross-node
// reads, and four barriers; it returns each node's final observation.
func restartProg(t *testing.T, plan *CrashPlan) ([]float64, uint64, *stats.Counters) {
	t.Helper()
	tc := newCrashCluster(3, true, false, plan)
	got := make([]float64, 3)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		tc.write(p, node, pageAddr(node), float64(10+node))
		tc.e.Barrier(p, node) // 1: each private page migrates to its writer
		right := (node + 1) % 3
		v := tc.read(p, node, pageAddr(right))
		tc.write(p, node, pageAddr(node), v+float64(node))
		tc.e.Barrier(p, node) // 2: crash point in the restart plans
		left := (node + 2) % 3
		v = tc.read(p, node, pageAddr(left))
		tc.write(p, node, pageAddr(node), v*2)
		tc.e.Barrier(p, node) // 3
		got[node] = tc.read(p, node, pageAddr((node+1)%3))
		tc.e.Barrier(p, node) // 4
	})
	return got, tc.e.StateFingerprint(), tc.c
}

// TestRestartBitIdentical: a crash-and-restart run must observe the
// same values and converge to the same protocol state fingerprint as
// the fault-free run — the checkpoint/restore contract at engine level.
func TestRestartBitIdentical(t *testing.T) {
	baseVals, baseFP, baseC := restartProg(t, nil)
	for _, plan := range []*CrashPlan{
		{Events: []CrashEvent{{Node: 1, Barrier: 2, Restart: true}}},
		{Events: []CrashEvent{{Node: 2, Barrier: 3, Restart: true}}},
		{Events: []CrashEvent{{Node: 1, Barrier: 1, Restart: true}, {Node: 1, Barrier: 3, Restart: true}}},
	} {
		vals, fp, c := restartProg(t, plan)
		for n := range vals {
			if vals[n] != baseVals[n] {
				t.Fatalf("plan %+v: node %d observed %v, fault-free %v", plan.Events, n, vals[n], baseVals[n])
			}
		}
		if fp != baseFP {
			t.Fatalf("plan %+v: fingerprint %x, fault-free %x", plan.Events, fp, baseFP)
		}
		want := int64(len(plan.Events))
		if c.Crashes != want || c.NodeRestarts != want || c.Recoveries != want {
			t.Fatalf("plan %+v: crashes/restarts/recoveries = %d/%d/%d, want %d each",
				plan.Events, c.Crashes, c.NodeRestarts, c.Recoveries, want)
		}
		if c.CkptMsgs == 0 {
			t.Fatalf("plan %+v: no checkpoint traffic", plan.Events)
		}
	}
	if baseC.CkptMsgs != 0 || baseC.Crashes != 0 {
		t.Fatalf("fault-free run shipped checkpoints (%d) or crashed (%d)", baseC.CkptMsgs, baseC.Crashes)
	}
}

// TestRestartResendsStuckFlush: a survivor caught mid-flush into the
// crashed home blocks on its diff ack; recovery must resend the bundle
// to the restarted node and release the flusher, and the written value
// must land.
func TestRestartResendsStuckFlush(t *testing.T) {
	run := func(plan *CrashPlan) (float64, uint64, *stats.Counters) {
		tc := newCrashCluster(3, true, false, plan)
		var got float64
		tc.spawnNodes(t, func(p *sim.Proc, node int) {
			if node == 1 {
				tc.write(p, 1, pageAddr(1), 5)
			}
			tc.e.Barrier(p, node) // 1: page migrates to node 1
			if node == 2 {
				// Write node 1's page remotely, then stall so node 1 is
				// already dead when the flush's diff goes out.
				tc.write(p, 2, pageAddr(1), 7)
				tc.cpus[2].Compute(p, 500*sim.Microsecond)
			}
			tc.e.Barrier(p, node) // 2: node 1 crashes; node 2's diff is stuck
			if node == 0 {
				got = tc.read(p, 0, pageAddr(1))
			}
			tc.e.Barrier(p, node) // 3
		})
		return got, tc.e.StateFingerprint(), tc.c
	}
	baseVal, baseFP, _ := run(nil)
	val, fp, c := run(&CrashPlan{Events: []CrashEvent{{Node: 1, Barrier: 2, Restart: true}}})
	if val != 7 || baseVal != 7 {
		t.Fatalf("read %v (fault-free %v), want 7", val, baseVal)
	}
	if fp != baseFP {
		t.Fatalf("fingerprint %x, fault-free %x", fp, baseFP)
	}
	if c.ResentBundles == 0 {
		t.Fatal("stuck diff bundle was not resent")
	}
}

// TestRestartReissuesStuckFetch: a reader blocked on a page fetch into
// the crashed home must have its fetch reissued after restart.
func TestRestartReissuesStuckFetch(t *testing.T) {
	run := func(plan *CrashPlan) (float64, uint64, *stats.Counters) {
		tc := newCrashCluster(3, true, false, plan)
		var got float64
		tc.spawnNodes(t, func(p *sim.Proc, node int) {
			if node == 1 {
				tc.write(p, 1, pageAddr(1), 9)
			}
			tc.e.Barrier(p, node) // 1: page migrates to node 1
			if node == 2 {
				// Stall so node 1 is dead before the fetch goes out, then
				// read its page: the fetch has no live home to answer.
				tc.cpus[2].Compute(p, 500*sim.Microsecond)
				got = tc.read(p, 2, pageAddr(1))
			}
			tc.e.Barrier(p, node) // 2: node 1 crashes at entry
			tc.e.Barrier(p, node) // 3
		})
		return got, tc.e.StateFingerprint(), tc.c
	}
	baseVal, baseFP, _ := run(nil)
	val, fp, c := run(&CrashPlan{Events: []CrashEvent{{Node: 1, Barrier: 2, Restart: true}}})
	if val != 9 || baseVal != 9 {
		t.Fatalf("read %v (fault-free %v), want 9", val, baseVal)
	}
	if fp != baseFP {
		t.Fatalf("fingerprint %x, fault-free %x", fp, baseFP)
	}
	if c.Refetches == 0 {
		t.Fatal("stuck page fetch was not reissued")
	}
}

// TestRestartDropsCachedPages: a restart replaces the node's memory,
// software TLB included. Node 1 reads node 0's page until the read hits
// its TLB, then crashes at the next barrier. The restored node holds the
// page as the checkpoint recorded it (a clean replica, readable again),
// so the first read after the restart misses the empty TLB, takes the
// permission path with the fault-free run's fault count, returns the
// home's value and caches the page anew.
func TestRestartDropsCachedPages(t *testing.T) {
	addr := pageAddr(2)
	type obs struct {
		cachedBefore, cachedAfter bool
		faults                    int64
		got                       float64
	}
	run := func(plan *CrashPlan) (o obs) {
		tc := newCrashCluster(3, false, false, plan)
		tc.spawnNodes(t, func(p *sim.Proc, node int) {
			if node == 0 {
				tc.write(p, 0, addr, 21)
			}
			tc.e.Barrier(p, node) // 1
			if node == 1 {
				for {
					tc.read(p, 1, addr)
					if _, hit := tc.e.Mem(1).AppLoad(addr); hit {
						break
					}
				}
			}
			tc.e.Barrier(p, node) // 2: node 1 crashes and restarts
			if node == 1 {
				_, o.cachedBefore = tc.e.Mem(1).AppLoad(addr)
				before := tc.e.cnt(1).ReadFaults
				o.got = tc.read(p, 1, addr)
				o.faults = tc.e.cnt(1).ReadFaults - before
				_, o.cachedAfter = tc.e.Mem(1).AppLoad(addr)
			}
			tc.e.Barrier(p, node) // 3
		})
		return o
	}
	if o := run(nil); o != (obs{true, true, 0, 21}) {
		t.Fatalf("fault-free: %+v, want the page still cached and read as 21", o)
	}
	if o := run(&CrashPlan{Events: []CrashEvent{{Node: 1, Barrier: 2, Restart: true}}}); o != (obs{false, true, 0, 21}) {
		t.Fatalf("after restart: %+v, want an empty TLB, 21 read without a fault, then cached", o)
	}
}

// TestShrinkRehomesAndSurvives: with Restart=false the dead member is
// removed; its pages re-home to the smallest survivor with their
// checkpointed contents intact, the barrier completes over the smaller
// membership, and the cluster keeps running.
func TestShrinkRehomesAndSurvives(t *testing.T) {
	plan := &CrashPlan{Events: []CrashEvent{{Node: 1, Barrier: 2}}}
	tc := newCrashCluster(3, true, false, plan)
	var got0, got2 float64
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.write(p, 1, pageAddr(1), 33)
		}
		tc.e.Barrier(p, node) // 1: page migrates to node 1
		tc.e.Barrier(p, node) // 2: node 1 crashes, membership shrinks
		if tc.e.Removed(node) {
			return
		}
		if node == 0 {
			got0 = tc.read(p, 0, pageAddr(1))
		}
		if node == 2 {
			got2 = tc.read(p, 2, pageAddr(1))
		}
		tc.e.Barrier(p, node) // 3: completes with 2 members
	})
	if got0 != 33 || got2 != 33 {
		t.Fatalf("survivors read %v/%v, want 33 (checkpointed contents lost)", got0, got2)
	}
	if !tc.e.Removed(1) || tc.e.Removed(0) || tc.e.Removed(2) {
		t.Fatal("membership bookkeeping wrong after shrink")
	}
	for _, survivor := range []int{0, 2} {
		if h := tc.e.nodes[survivor].table.Peek(pageAddr(1) / dsm.PageSize).Home; h != 0 {
			t.Fatalf("node %d sees home %d for the orphaned page, want 0", survivor, h)
		}
	}
	if tc.c.Recoveries != 1 || tc.c.NodeRestarts != 0 {
		t.Fatalf("Recoveries=%d NodeRestarts=%d, want 1/0", tc.c.Recoveries, tc.c.NodeRestarts)
	}
	if tc.c.PagesRestored == 0 {
		t.Fatal("no pages restored from the buddy mirror")
	}
}

// TestShrinkReclaimsCachedToken: a lazy-release token resident on the
// dead member is reclaimed by the manager (with its write notices) and
// granted to the next requester.
func TestShrinkReclaimsCachedToken(t *testing.T) {
	plan := &CrashPlan{Events: []CrashEvent{{Node: 1, Barrier: 2}}}
	tc := newCrashCluster(3, true, true, plan)
	const lockID = 7
	reacquired := false
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node == 1 {
			tc.e.AcquireLock(p, 1, lockID)
			tc.write(p, 1, pageAddr(1), 1)
			tc.e.ReleaseLock(p, 1, lockID) // token stays cached on node 1
		}
		tc.e.Barrier(p, node) // 1
		tc.e.Barrier(p, node) // 2: node 1 crashes, membership shrinks
		if tc.e.Removed(node) {
			return
		}
		if node == 2 {
			tc.e.AcquireLock(p, 2, lockID) // must be granted from the reclaimed token
			reacquired = true
			tc.e.ReleaseLock(p, 2, lockID)
		}
		tc.e.Barrier(p, node) // 3
	})
	if !reacquired {
		t.Fatal("survivor never reacquired the orphaned lock")
	}
	if tc.c.ReclaimedLocks != 1 {
		t.Fatalf("ReclaimedLocks = %d, want 1", tc.c.ReclaimedLocks)
	}
}

// TestFingerprintCoversLockState: satellite coverage for the extended
// StateFingerprint — manager lock state, cached tokens, and pending
// write-notice state must all perturb the hash, while timing-dependent
// modifier identities must not.
func TestFingerprintCoversLockState(t *testing.T) {
	tc := newTestCluster(2, false)
	sequence := []struct {
		name   string
		mutate func()
	}{
		{"lock held", func() {
			ls := tc.e.lockState(5)
			ls.held, ls.holder = true, 1
		}},
		{"queue entry", func() { tc.e.lockState(5).queue = append(tc.e.lockState(5).queue, 0) }},
		{"manager notice page", func() { tc.e.lockState(5).notices[3] = 1 }},
		{"reclaimed token", func() {
			tc.e.lockState(5).reclaimed = []dsm.WriteNotice{{Page: 9, Modifier: 1}}
		}},
		{"cached token", func() { tc.e.nodes[1].nodeLockFor(5).cached = true }},
		{"token notice page", func() {
			tc.e.nodes[1].nodeLockFor(5).notices = []dsm.WriteNotice{{Page: 7, Modifier: 0}}
		}},
		{"pending barrier modifiers", func() { tc.e.master.modifiers[2] = map[int]bool{1: true} }},
	}
	prev := tc.e.StateFingerprint()
	for _, step := range sequence {
		step.mutate()
		next := tc.e.StateFingerprint()
		if next == prev {
			t.Fatalf("%s: fingerprint blind to the change", step.name)
		}
		prev = next
	}
	// Modifier identity is timing-dependent and must be excluded.
	tc.e.lockState(5).notices[3] = 0
	tc.e.nodes[1].nodeLockFor(5).notices[0].Modifier = 1
	if got := tc.e.StateFingerprint(); got != prev {
		t.Fatal("fingerprint depends on write-notice modifier identity")
	}
}
