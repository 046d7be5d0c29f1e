package hlrc

import (
	"testing"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
	"parade/internal/stats"
)

func newCachedCluster(nodes int) *testCluster {
	s := sim.New(1)
	cpus := make([]*sim.CPU, nodes)
	for i := range cpus {
		cpus[i] = sim.NewCPU(s, 2, 0)
	}
	c := &stats.Counters{}
	net := netsim.New(s, nodes, netsim.VIA(), cpus, c)
	e := New(s, net, cpus, Config{
		Nodes: nodes, ShmBytes: 1 << 20,
		HomeMigration: false, LockCaching: true, Strategy: dsm.FileMapping,
	}, c)
	for n := 0; n < nodes; n++ {
		n := n
		s.SpawnDaemon("comm", func(p *sim.Proc) {
			for {
				m := net.Inbox(n).Pop(p)
				net.RecvCost(p, n)
				e.Handle(p, n, m)
			}
		})
	}
	return &testCluster{s: s, e: e, c: c, cpus: cpus}
}

func TestCachedLockMutualExclusion(t *testing.T) {
	tc := newCachedCluster(4)
	inside, peak := 0, 0
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for i := 0; i < 3; i++ {
			tc.e.AcquireLock(p, node, 1)
			inside++
			if inside > peak {
				peak = inside
			}
			p.Sleep(50 * sim.Microsecond)
			inside--
			tc.e.ReleaseLock(p, node, 1)
		}
	})
	if peak != 1 {
		t.Fatalf("peak holders %d", peak)
	}
}

func TestCachedReacquireCostsNoMessages(t *testing.T) {
	tc := newCachedCluster(2)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		if node != 1 {
			return
		}
		// First acquire pays the manager round trip...
		tc.e.AcquireLock(p, node, 0)
		tc.e.ReleaseLock(p, node, 0)
		before := tc.live().Messages
		if before == 0 {
			t.Errorf("first acquire sent no messages")
		}
		// ...every further uncontended acquire is message-free.
		for i := 0; i < 5; i++ {
			tc.e.AcquireLock(p, node, 0)
			tc.e.ReleaseLock(p, node, 0)
		}
		if after := tc.live().Messages; after != before {
			t.Errorf("cached re-acquire sent %d messages", after-before)
		}
	})
}

func TestCachedLockDataCoherence(t *testing.T) {
	// The token must carry the write notices: each acquirer sees the
	// previous holder's update to the lock-protected counter.
	tc := newCachedCluster(3)
	const addr = 512
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for i := 0; i < 4; i++ {
			tc.e.AcquireLock(p, node, 2)
			v := tc.read(p, node, addr)
			tc.write(p, node, addr, v+1)
			tc.e.ReleaseLock(p, node, 2)
		}
		tc.e.Barrier(p, node)
	})
	if got := tc.e.Mem(0).ReadF64(addr); got != 12 {
		t.Fatalf("counter = %v, want 12", got)
	}
}

func TestCachedCheaperThanCentralizedWhenUncontended(t *testing.T) {
	run := func(caching bool) (sim.Time, int64) {
		var tc *testCluster
		if caching {
			tc = newCachedCluster(4)
		} else {
			tc = newTestCluster(4, false)
		}
		tc.spawnNodes(t, func(p *sim.Proc, node int) {
			if node != 2 {
				return
			}
			// One node repeatedly takes "its" lock — the uncontended
			// pattern lock caching exists for.
			for i := 0; i < 20; i++ {
				tc.e.AcquireLock(p, node, 5)
				tc.e.ReleaseLock(p, node, 5)
			}
		})
		return tc.s.Now(), tc.c.Messages
	}
	cachedTime, cachedMsgs := run(true)
	centralTime, centralMsgs := run(false)
	if cachedMsgs >= centralMsgs {
		t.Fatalf("caching used %d messages vs centralized %d", cachedMsgs, centralMsgs)
	}
	if cachedTime >= centralTime {
		t.Fatalf("caching time %v not better than centralized %v", cachedTime, centralTime)
	}
}

func TestCachedContendedStillCorrectCounters(t *testing.T) {
	tc := newCachedCluster(4)
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for i := 0; i < 5; i++ {
			tc.e.AcquireLock(p, node, 0)
			tc.e.ReleaseLock(p, node, 0)
		}
	})
	if tc.c.LockRequests != 20 {
		t.Fatalf("LockRequests = %d, want 20", tc.c.LockRequests)
	}
}
