package sim

import "testing"

// Hygiene tests for the hand-rolled event kernel: popped heap slots must
// not retain payloads, park reasons must clear when a wake pops, and
// the steady-state dispatch paths must not allocate.

func TestHeapPopClearsSlot(t *testing.T) {
	var h eventHeap
	p := &Proc{}
	h.push(event{t: 1, seq: 1, fn: func() {}})
	h.push(event{t: 2, seq: 2, p: p})
	h.pop()
	h.pop()
	// The backing array still holds the popped slots; both must be zeroed
	// so closures and Proc pointers are not retained until overwritten.
	slots := h.ev[:cap(h.ev)]
	for i, e := range slots {
		if e.fn != nil || e.p != nil {
			t.Fatalf("slot %d retains payload after pop: %+v", i, e)
		}
	}
}

func TestHeapOrdersByTimeThenSeq(t *testing.T) {
	var h eventHeap
	for _, e := range []event{
		{t: 5, seq: 9}, {t: 1, seq: 4}, {t: 5, seq: 2}, {t: 1, seq: 3}, {t: 0, seq: 8},
	} {
		ev := e
		ev.fn = func() {}
		h.push(ev)
	}
	var got [][2]int64
	for h.len() > 0 {
		e := h.pop()
		got = append(got, [2]int64{int64(e.t), int64(e.seq)})
	}
	want := [][2]int64{{0, 8}, {1, 3}, {1, 4}, {5, 2}, {5, 9}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestParkReasonsClearedAfterCleanRun(t *testing.T) {
	s := New(1)
	mu := NewMutex(s)
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) {
			for j := 0; j < 3; j++ {
				mu.Lock(p)
				p.Sleep(Microsecond)
				mu.Unlock(p)
				p.Yield()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.procs {
		if p.reason != "" {
			t.Fatalf("proc %q keeps park reason %q after clean run", p.name, p.reason)
		}
	}
	if s.queue.len() != 0 {
		t.Fatalf("queue retains %d events after run", s.queue.len())
	}
}

func TestParkReasonsKeepOnlyBlockedProcsOnDeadlock(t *testing.T) {
	s := New(1)
	g := NewGate(s)
	s.Spawn("done", func(p *Proc) { p.Sleep(Microsecond) })
	s.Spawn("stuck", func(p *Proc) { g.Wait(p) })
	err := s.Run()
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("want deadlock, got %v", err)
	}
	var parked []string
	for _, p := range s.procs {
		if p.reason != "" {
			parked = append(parked, p.name)
		}
	}
	if len(parked) != 1 || parked[0] != "stuck" {
		t.Fatalf("procs with a park reason = %v, want only the stuck proc", parked)
	}
}

// TestDispatchPathsDoNotAllocate pins the zero-alloc property of the
// event and handoff hot paths so an accidental closure or boxing
// reintroduction fails fast.
func TestDispatchPathsDoNotAllocate(t *testing.T) {
	// Self-contained callback chain (the BenchmarkEventThroughput shape).
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			s.At(Microsecond, tick)
		}
	}
	s.At(Microsecond, tick)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// Sleep self-wake path: the parking proc pops its own wake event.
	s2 := New(1)
	s2.Spawn("sleeper", func(p *Proc) {
		warm := testing.AllocsPerRun(100, func() { p.Sleep(Microsecond) })
		if warm > 0 {
			t.Errorf("Sleep allocates %.1f times per op on the self-wake path", warm)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}
