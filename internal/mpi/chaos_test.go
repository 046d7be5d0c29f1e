package mpi

import (
	"testing"

	"parade/internal/netsim"
	"parade/internal/sim"
	"parade/internal/stats"
)

// chaosHarness is the test harness with a fault plane attached to the
// network: the MPI library must be oblivious to drops, duplicates, and
// reordering underneath it.
func chaosHarness(t *testing.T, n int, prof netsim.Profile, body func(p *sim.Proc, ep *Endpoint)) *stats.Counters {
	t.Helper()
	s := sim.New(1)
	cpus := make([]*sim.CPU, n)
	for i := range cpus {
		cpus[i] = sim.NewCPU(s, 2, 0)
	}
	c := &stats.Counters{}
	net := netsim.New(s, n, netsim.VIA(), cpus, c)
	net.EnableFaults(prof)
	w := NewWorld(s, net, c)
	w.Serve()
	for r := 0; r < n; r++ {
		ep := w.Rank(r)
		s.Spawn("rank", func(p *sim.Proc) { body(p, ep) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return net.Counters().Fold()
}

// TestChaosCollectivesSurviveFaults: allreduce, bcast, and barrier
// produce correct results under every built-in fault profile, and the
// lossy profiles actually exercise the retransmit path.
func TestChaosCollectivesSurviveFaults(t *testing.T) {
	const n, rounds = 4, 30
	for _, prof := range netsim.Profiles(11) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			sums := make([]float64, n)
			roots := make([][]int, n)
			c := chaosHarness(t, n, prof, func(p *sim.Proc, ep *Endpoint) {
				me := ep.RankID()
				for r := 0; r < rounds; r++ {
					v := ep.Allreduce(p, float64(me+1), 8, func(a, b any) any {
						return a.(float64) + b.(float64)
					})
					sums[me] += v.(float64)
					got := ep.Bcast(p, r%n, r*10, 8)
					roots[me] = append(roots[me], got.(int))
					ep.Barrier(p)
				}
			})
			wantSum := float64(rounds) * float64(n*(n+1)/2)
			for me := 0; me < n; me++ {
				if sums[me] != wantSum {
					t.Fatalf("rank %d allreduce sum %v, want %v", me, sums[me], wantSum)
				}
				for r, got := range roots[me] {
					if got != r*10 {
						t.Fatalf("rank %d round %d bcast got %d, want %d", me, r, got, r*10)
					}
				}
			}
			if c.Retransmits == 0 {
				t.Fatalf("profile %q: no retransmits over %d collective rounds", prof.Name, rounds)
			}
		})
	}
}

// TestChaosPointToPointOrdering: tag-matched point-to-point traffic
// keeps per-link FIFO semantics under the chaos profile.
func TestChaosPointToPointOrdering(t *testing.T) {
	const n, msgs = 3, 60
	got := make([][]int, n)
	chaosHarness(t, n, netsim.ProfileChaos(5), func(p *sim.Proc, ep *Endpoint) {
		me := ep.RankID()
		next := (me + 1) % n
		prev := (me + n - 1) % n
		for i := 0; i < msgs; i++ {
			ep.Send(p, next, i, me*1000+i, 64)
			m := ep.Recv(p, prev, i)
			got[me] = append(got[me], m.Payload.(int))
		}
	})
	for me := 0; me < n; me++ {
		prev := (me + n - 1) % n
		for i, v := range got[me] {
			if v != prev*1000+i {
				t.Fatalf("rank %d message %d: got %d, want %d", me, i, v, prev*1000+i)
			}
		}
	}
}
