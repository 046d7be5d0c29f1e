package mpi

import (
	"testing"
	"testing/quick"

	"parade/internal/netsim"
	"parade/internal/sim"
	"parade/internal/stats"
)

// harness builds a world of n ranks with daemon comm pumps and runs body
// once per rank on its own proc, then drives the simulation to completion.
func harness(t *testing.T, n int, seed int64, body func(p *sim.Proc, ep *Endpoint)) (*stats.Counters, sim.Time) {
	t.Helper()
	s := sim.New(seed)
	cpus := make([]*sim.CPU, n)
	for i := range cpus {
		cpus[i] = sim.NewCPU(s, 2, 0)
	}
	c := &stats.Counters{}
	net := netsim.New(s, n, netsim.VIA(), cpus, c)
	w := NewWorld(s, net, c)
	w.Serve()
	for r := 0; r < n; r++ {
		ep := w.Rank(r)
		s.Spawn("rank", func(p *sim.Proc) { body(p, ep) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return net.Counters().Fold(), s.Now()
}

func TestSendRecv(t *testing.T) {
	var got any
	harness(t, 2, 1, func(p *sim.Proc, ep *Endpoint) {
		switch ep.RankID() {
		case 0:
			ep.Send(p, 1, 7, "payload", 16)
		case 1:
			m := ep.Recv(p, 0, 7)
			got = m.Payload
		}
	})
	if got != "payload" {
		t.Fatalf("got %v", got)
	}
}

func TestRecvMatchesByTag(t *testing.T) {
	var order []int
	harness(t, 2, 1, func(p *sim.Proc, ep *Endpoint) {
		switch ep.RankID() {
		case 0:
			ep.Send(p, 1, 10, 10, 8)
			ep.Send(p, 1, 20, 20, 8)
		case 1:
			// Receive in reverse tag order: matching must be by tag,
			// not arrival order.
			m := ep.Recv(p, 0, 20)
			order = append(order, m.Payload.(int))
			m = ep.Recv(p, 0, 10)
			order = append(order, m.Payload.(int))
		}
	})
	if len(order) != 2 || order[0] != 20 || order[1] != 10 {
		t.Fatalf("order %v", order)
	}
}

func TestRecvAnySource(t *testing.T) {
	seen := map[int]bool{}
	harness(t, 4, 1, func(p *sim.Proc, ep *Endpoint) {
		if ep.RankID() == 0 {
			for i := 0; i < 3; i++ {
				m := ep.Recv(p, AnySource, 5)
				seen[m.From] = true
			}
		} else {
			ep.Send(p, 0, 5, nil, 4)
		}
	})
	if len(seen) != 3 {
		t.Fatalf("saw senders %v", seen)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	var got []int
	harness(t, 2, 1, func(p *sim.Proc, ep *Endpoint) {
		switch ep.RankID() {
		case 0:
			for i := 1; i <= 3; i++ {
				ep.Send(p, 1, 9, i, 4)
			}
		case 1:
			p.Sleep(10 * sim.Millisecond) // let all three land unexpected
			for i := 0; i < 3; i++ {
				got = append(got, ep.Recv(p, 0, 9).Payload.(int))
			}
		}
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("unexpected queue order %v", got)
	}
}

func sumInts(a, b any) any { return a.(int) + b.(int) }

func TestAllreducePowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		results := make([]int, n)
		harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
			r := ep.RankID()
			v := ep.Allreduce(p, r+1, 8, sumInts)
			results[r] = v.(int)
		})
		want := n * (n + 1) / 2
		for r, v := range results {
			if v != want {
				t.Fatalf("n=%d rank %d got %d, want %d", n, r, v, want)
			}
		}
	}
}

func TestAllreduceNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7} {
		results := make([]int, n)
		harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
			r := ep.RankID()
			results[r] = ep.Allreduce(p, r+1, 8, sumInts).(int)
		})
		want := n * (n + 1) / 2
		for r, v := range results {
			if v != want {
				t.Fatalf("n=%d rank %d got %d, want %d", n, r, v, want)
			}
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for root := 0; root < n; root++ {
			results := make([]int, n)
			harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
				var val any
				if ep.RankID() == root {
					val = 42
				}
				results[ep.RankID()] = ep.Bcast(p, root, val, 8).(int)
			})
			for r, v := range results {
				if v != 42 {
					t.Fatalf("n=%d root=%d rank=%d got %d", n, root, r, v)
				}
			}
		}
	}
}

func TestBcastMessageCountIsNMinusOne(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		c, _ := harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
			ep.Bcast(p, 0, 1, 8)
		})
		if c.Sends != int64(n-1) {
			t.Fatalf("n=%d: %d sends, want %d", n, c.Sends, n-1)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		var minExit, maxEnter sim.Time
		minExit = 1 << 60
		harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
			// Stagger arrivals; nobody may leave before the last arrival.
			p.Sleep(sim.Duration(ep.RankID()) * sim.Millisecond)
			if p.Now() > maxEnter {
				maxEnter = p.Now()
			}
			ep.Barrier(p)
			if p.Now() < minExit {
				minExit = p.Now()
			}
		})
		if minExit < maxEnter {
			t.Fatalf("n=%d: rank left barrier at %v before last arrival %v", n, minExit, maxEnter)
		}
	}
}

func TestReduceToRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		var atRoot any
		harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
			v := ep.reduceToRoot(p, 0, 1<<ep.RankID(), 8, sumInts)
			if ep.RankID() == 0 {
				atRoot = v
			}
		})
		want := (1 << n) - 1
		if atRoot.(int) != want {
			t.Fatalf("n=%d reduce got %v, want %d", n, atRoot, want)
		}
	}
}

func TestBackToBackCollectivesDoNotCrossTalk(t *testing.T) {
	n := 4
	results := make([][]int, n)
	harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
		r := ep.RankID()
		for i := 0; i < 5; i++ {
			v := ep.Allreduce(p, r+i, 8, sumInts).(int)
			b := ep.Bcast(p, i%n, v, 8).(int)
			results[r] = append(results[r], v, b)
		}
	})
	for r := 1; r < n; r++ {
		if len(results[r]) != len(results[0]) {
			t.Fatalf("rank %d result length differs", r)
		}
		for i := range results[r] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d diverges at %d: %v vs %v", r, i, results[r], results[0])
			}
		}
	}
}

func TestAllreduceLatencyGrowsLogarithmically(t *testing.T) {
	at := map[int]sim.Time{}
	for _, n := range []int{2, 4, 8} {
		_, end := harness(t, n, 1, func(p *sim.Proc, ep *Endpoint) {
			ep.Allreduce(p, 1, 8, sumInts)
		})
		at[n] = end
	}
	// Recursive doubling: 8 ranks take ~3 rounds vs 1 round for 2 ranks;
	// growth should be clearly sublinear in n.
	if at[8] >= 4*at[2] {
		t.Fatalf("allreduce latency n=2:%v n=8:%v — not logarithmic", at[2], at[8])
	}
	if at[8] <= at[2] {
		t.Fatalf("allreduce latency should still grow with n: %v", at)
	}
}

// Property: allreduce of random contributions equals the serial sum on
// every rank, for every cluster size 1..8.
func TestAllreduceSumProperty(t *testing.T) {
	prop := func(vals []int16, nRaw uint8) bool {
		n := int(nRaw)%8 + 1
		if len(vals) < n {
			return true
		}
		want := 0
		for i := 0; i < n; i++ {
			want += int(vals[i])
		}
		results := make([]int, n)
		harness(t, n, 99, func(p *sim.Proc, ep *Endpoint) {
			results[ep.RankID()] = ep.Allreduce(p, int(vals[ep.RankID()]), 8, sumInts).(int)
		})
		for _, v := range results {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
