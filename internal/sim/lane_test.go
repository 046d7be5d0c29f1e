package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// laneRing builds a ring of n lanes, each with one process that computes
// (sleeps) and forwards a token to the next lane with delay hop (which
// must respect the lookahead in strict mode). It returns a per-lane
// trace of (virtual time, token value) pairs — the determinism witness.
func laneRing(t *testing.T, n, workers int, lookahead Duration, relaxed, churn bool, rounds int) [][]string {
	t.Helper()
	s := New(42)
	s.ConfigureLanes(n, workers, lookahead, relaxed)
	s.SetWindowChurn(churn)
	traces := make([][]string, n)
	queues := make([]*Queue[int], n)
	for i := 0; i < n; i++ {
		queues[i] = NewQueue[int](s)
	}
	hop := lookahead
	if relaxed {
		hop = lookahead / 2 // deliberately violates lookahead; legal relaxed
	}
	for i := 0; i < n; i++ {
		i := i
		s.SpawnOn(i, fmt.Sprintf("node%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				v := queues[i].Pop(p)
				// Lane-local work with a deterministic pseudo-random span.
				p.Sleep(Duration(1+p.Rand().Intn(3)) * Microsecond)
				traces[i] = append(traces[i], fmt.Sprintf("%d@%d", v, p.Now()))
				next := (i + 1) % n
				nv := v + 1
				s.AtFrom(i, next, hop, func() { queues[next].Push(nv) })
			}
		})
	}
	// Seed one token per lane so every lane is busy each window.
	for i := 0; i < n; i++ {
		queues[i].Push(i * 1000)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run (workers=%d relaxed=%v): %v", workers, relaxed, err)
	}
	return traces
}

func flatten(tr [][]string) string {
	out := ""
	for i, lane := range tr {
		out += fmt.Sprintf("lane%d:", i)
		for _, e := range lane {
			out += e + ";"
		}
		out += "\n"
	}
	return out
}

// TestLaneDeterminism is the core tentpole property: the canonical
// windowed schedule is identical for one worker slot, many worker
// slots, and many worker slots under host-scheduling churn.
func TestLaneDeterminism(t *testing.T) {
	const n, rounds = 8, 50
	la := 5 * Microsecond
	base := flatten(laneRing(t, n, 1, la, false, false, rounds))
	for _, cfg := range []struct {
		workers int
		churn   bool
	}{{4, false}, {8, false}, {8, true}, {3, true}} {
		got := flatten(laneRing(t, n, cfg.workers, la, false, cfg.churn, rounds))
		if got != base {
			t.Fatalf("workers=%d churn=%v diverged from workers=1:\n--- base ---\n%s--- got ---\n%s",
				cfg.workers, cfg.churn, base, got)
		}
	}
}

// TestLaneRelaxedDeterminism: the relaxed (serialized) regime is
// deterministic for any requested worker count, because workers is
// forced to 1.
func TestLaneRelaxedDeterminism(t *testing.T) {
	const n, rounds = 6, 30
	la := 4 * Microsecond
	base := flatten(laneRing(t, n, 1, la, true, false, rounds))
	got := flatten(laneRing(t, n, 7, la, true, true, rounds))
	if got != base {
		t.Fatalf("relaxed run diverged across requested worker counts:\n%s\nvs\n%s", base, got)
	}
}

// TestLaneSingleLaneDegenerate: one lane with any worker count behaves
// like a plain sequential simulation.
func TestLaneSingleLaneDegenerate(t *testing.T) {
	s := New(1)
	s.ConfigureLanes(1, 4, Microsecond, false)
	var ticks []Time
	s.SpawnOn(0, "p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(3 * Microsecond)
			ticks = append(ticks, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 10 || ticks[9] != Time(30*Microsecond) {
		t.Fatalf("ticks = %v", ticks)
	}
	if s.Now() != Time(30*Microsecond) {
		t.Fatalf("final Now = %v", s.Now())
	}
}

// TestLaneLookaheadViolation: a cross-lane insertion below the lookahead
// bound panics with a *LookaheadError in the strict regime.
func TestLaneLookaheadViolation(t *testing.T) {
	s := New(3)
	s.ConfigureLanes(2, 2, 10*Microsecond, false)
	var caught error
	s.SpawnOn(0, "violator", func(p *Proc) {
		p.Sleep(Microsecond) // enter a running window
		defer func() {
			if r := recover(); r != nil {
				if le, ok := r.(*LookaheadError); ok {
					caught = le
				}
				// Re-park forever so the kernel sees a clean exit path.
			}
		}()
		s.AtFrom(0, 1, Microsecond, func() {})
	})
	s.SpawnOn(1, "peer", func(p *Proc) { p.Sleep(2 * Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if caught == nil {
		t.Fatal("expected a *LookaheadError from a sub-lookahead cross-lane insert")
	}
}

// TestLaneDeadlock: lane mode still reports a global deadlock with the
// parked processes of every lane.
func TestLaneDeadlock(t *testing.T) {
	s := New(9)
	s.ConfigureLanes(3, 3, Microsecond, false)
	g := NewGate(s)
	s.SpawnOn(1, "stuck1", func(p *Proc) { g.Wait(p) })
	s.SpawnOn(2, "stuck2", func(p *Proc) { p.Sleep(Microsecond); g.Wait(p) })
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Parked) != 2 {
		t.Fatalf("parked = %v", de.Parked)
	}
}

// TestLaneSerialEvent: AtSerial runs between windows with every lane
// quiesced and advanced to the serial instant.
func TestLaneSerialEvent(t *testing.T) {
	s := New(5)
	s.ConfigureLanes(4, 4, 2*Microsecond, false)
	var at Time
	var lanesNow []Time
	s.AtSerial(50*Microsecond, func() {
		at = s.Now() // serial context: global clock is defined
		for i := 0; i < 4; i++ {
			lanesNow = append(lanesNow, s.NowOn(i))
		}
	})
	for i := 0; i < 4; i++ {
		i := i
		s.SpawnOn(i, fmt.Sprintf("w%d", i), func(p *Proc) {
			for k := 0; k < 30; k++ {
				p.Sleep(3 * Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(50*Microsecond) {
		t.Fatalf("serial event ran at %v", at)
	}
	for i, ln := range lanesNow {
		if ln != at {
			t.Fatalf("lane %d clock %v at serial event (want %v)", i, ln, at)
		}
	}
}

// TestLaneStats: executing windows populates utilization counters and
// the sync-latency histogram.
func TestLaneStats(t *testing.T) {
	tr := laneRing(t, 4, 2, 5*Microsecond, false, false, 20)
	_ = tr
}

// TestLaneRandStreamsPinned pins the per-lane random streams, which are
// built lazily on first use, to the values of eager construction: the
// root draw still happens in ConfigureLanes, so the global stream after
// it and every lane stream are bit-identical to before.
func TestLaneRandStreamsPinned(t *testing.T) {
	s := New(42)
	s.ConfigureLanes(8, 2, Microsecond, false)
	want := map[int][3]int64{
		0: {457111260072245200, 495545980768056571, 3709041367815360332},
		1: {1918828609451830579, 1438149856002881276, 7926931530220914167},
		7: {5951301048718421974, 9077332163497344173, 8204868132669510916},
	}
	for _, ln := range []int{0, 1, 7} {
		r := s.RandOn(ln)
		got := [3]int64{r.Int63(), r.Int63(), r.Int63()}
		if got != want[ln] {
			t.Errorf("lane %d draws %v, want %v", ln, got, want[ln])
		}
	}
	if got := s.Rand().Int63(); got != 608747136543856411 {
		t.Errorf("global stream after ConfigureLanes drew %d, want 608747136543856411", got)
	}
}

// TestLaneHeapReKey drives the pending-lane heap the way the barrier
// does: many lanes' queues change in one batch — heads moved earlier by
// merged events, later by popped ones, lanes emptied and refilled — and
// only then is each touched lane re-keyed, in arbitrary order. After
// every batch the heap top must be the true minimum head and the window
// prefix exactly the lanes with a head below the horizon: a stale key
// must never hide an earlier head.
func TestLaneHeapReKey(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(5))
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = &lane{id: i, slot: -1}
		for k := rng.Intn(3); k > 0; k-- {
			lanes[i].push(Time(rng.Intn(1000)), event{})
		}
	}
	var h laneHeap
	h.rebuild(lanes)
	for batch := 0; batch < 500; batch++ {
		touched := rng.Perm(n)[:1+rng.Intn(n)]
		for _, i := range touched {
			ln := lanes[i]
			switch rng.Intn(3) {
			case 0: // an earlier (or any) event arrives
				ln.push(Time(rng.Intn(1000)), event{})
			case 1: // the lane ran: some events popped
				for k := rng.Intn(3); k > 0 && ln.queue.len() > 0; k-- {
					ln.queue.pop()
				}
			default: // both
				ln.push(Time(rng.Intn(1000)), event{})
				if ln.queue.len() > 0 {
					ln.queue.pop()
				}
			}
		}
		rng.Shuffle(len(touched), func(a, b int) { touched[a], touched[b] = touched[b], touched[a] })
		for _, i := range touched {
			h.fix(lanes[i])
		}
		minHead, active := maxTime, 0
		for _, ln := range lanes {
			if ln.queue.len() > 0 {
				active++
				minHead = min(minHead, ln.queue.ev[0].t)
			}
		}
		if len(h.ln) != active {
			t.Fatalf("batch %d: heap holds %d lanes, %d have events", batch, len(h.ln), active)
		}
		for i, ln := range h.ln {
			if ln.slot != i {
				t.Fatalf("batch %d: lane %d at index %d records slot %d", batch, ln.id, i, ln.slot)
			}
		}
		if active == 0 {
			continue
		}
		if h.ln[0].key != minHead {
			t.Fatalf("batch %d: heap top %v, true minimum head %v", batch, h.ln[0].key, minHead)
		}
		H := minHead + Time(rng.Intn(200))
		got := map[int]bool{}
		for _, ln := range h.below(0, H, nil) {
			got[ln.id] = true
		}
		for _, ln := range lanes {
			if in := ln.queue.len() > 0 && ln.queue.ev[0].t < H; in != got[ln.id] {
				t.Fatalf("batch %d: lane %d (head in window: %v) dispatched=%v", batch, ln.id, in, got[ln.id])
			}
		}
	}
}

// TestLaneScatterWindows: in every window many lanes' heads move at
// once — a broadcast from lane 0 pulls every other lane's head earlier
// than its far-future local event, and each reply pulls lane 0's back.
// Every cross-lane event must run at exactly its scheduled time (a lane
// dispatched late would clamp or trip the lookahead check), and the
// trace must not depend on the worker count.
func TestLaneScatterWindows(t *testing.T) {
	const n, rounds = 32, 20
	const la = 10 * Microsecond
	run := func(workers int) string {
		s := New(3)
		s.ConfigureLanes(n, workers, la, false)
		trace := make([][]string, n)
		late := make([][]string, n) // per lane: lanes run concurrently
		at := func(src, dst int, d Duration, what string, fn func()) {
			want := s.NowOn(src) + Time(d)
			s.AtFrom(src, dst, d, func() {
				if got := s.NowOn(dst); got != want {
					late[dst] = append(late[dst], fmt.Sprintf("%s on lane %d ran at %v, scheduled %v", what, dst, got, want))
				}
				trace[dst] = append(trace[dst], fmt.Sprintf("%s@%d", what, s.NowOn(dst)))
				fn()
			})
		}
		var broadcast func(r int)
		broadcast = func(r int) {
			if r == rounds {
				return
			}
			for dst := 1; dst < n; dst++ {
				dst := dst
				at(0, dst, la+Duration(dst%3), fmt.Sprintf("b%d", r), func() {
					// A far-future local event keeps the lane's old head
					// later than the next broadcast.
					at(dst, dst, 50*la, fmt.Sprintf("far%d", r), func() {})
					at(dst, 0, la+Duration(dst), fmt.Sprintf("r%d.%d", r, dst), func() {
						if dst == n-1 {
							broadcast(r + 1)
						}
					})
				})
			}
		}
		s.AtFrom(0, 0, 0, func() { broadcast(0) })
		if err := s.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, l := range late {
			if len(l) > 0 {
				t.Fatalf("workers=%d: %d events ran off schedule, first: %s", workers, len(l), l[0])
			}
		}
		return flatten(trace) + fmt.Sprintf("windows=%d", s.LaneWindows())
	}
	base := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); got != base {
			t.Fatalf("workers=%d diverged from workers=1:\n%s\nvs\n%s", workers, got, base)
		}
	}
}

// TestLaneGoroutineCount: during a 256-lane run the kernel holds one
// goroutine per process plus workers-1 helpers — no goroutine per lane.
func TestLaneGoroutineCount(t *testing.T) {
	const n = 256
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := New(1)
			s.ConfigureLanes(n, workers, 5*Microsecond, false)
			for i := 0; i < n; i++ {
				s.SpawnOn(i, fmt.Sprintf("w%d", i), func(p *Proc) {
					for k := 0; k < 10; k++ {
						p.Sleep(Duration(1+p.Lane()%7) * Microsecond)
					}
				})
			}
			var during int
			s.AtSerial(5*Microsecond, func() { during = runtime.NumGoroutine() })
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// ±2: goroutines of earlier tests may still be exiting when
			// base is read.
			if extra := during - base - n; extra < workers-1-2 || extra > workers-1+2 {
				t.Fatalf("%d goroutines mid-run: base %d + %d processes + %d, want %d helpers ± 2",
					during, base, n, extra, workers-1)
			}
			waitGoroutines(t, base, "256-lane run")
		})
	}
}

func TestLaneStatsCounters(t *testing.T) {
	s := New(7)
	s.ConfigureLanes(2, 2, 5*Microsecond, false)
	for i := 0; i < 2; i++ {
		i := i
		s.SpawnOn(i, fmt.Sprintf("w%d", i), func(p *Proc) {
			for k := 0; k < 40; k++ {
				p.Sleep(2 * Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	stats := s.LaneStats()
	if len(stats) != 2 {
		t.Fatalf("lane stats: %v", stats)
	}
	for _, st := range stats {
		if st.Windows == 0 || st.Events == 0 {
			t.Fatalf("empty stats for lane %d: %+v", st.Lane, st)
		}
	}
	if s.LaneWindows() == 0 {
		t.Fatal("no windows recorded")
	}
	h := s.LaneSyncHist()
	if h.Count == 0 {
		t.Fatal("no sync-latency samples")
	}
}
