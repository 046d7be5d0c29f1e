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

	// Process-to-process hand-offs through each wait list: the measuring
	// process and a partner alternate, so every op parks, hands the baton
	// to the other process and is woken by a wait-list pop.
	s3 := New(1)
	ping, pong := NewQueue[int](s3), NewQueue[int](s3)
	if a := handoffAllocs(t, s3,
		func(p *Proc) { ping.Push(1); pong.Pop(p) },
		func(p *Proc) { pong.Push(ping.Pop(p)) }); a > 0 {
		t.Errorf("Queue ping-pong allocates %.1f times per op", a)
	}
	s4 := New(1)
	mu := NewMutex(s4)
	critical := func(p *Proc) { mu.Lock(p); p.Sleep(Nanosecond); mu.Unlock(p) }
	if a := handoffAllocs(t, s4, critical, critical); a > 0 {
		t.Errorf("Mutex hand-off allocates %.1f times per op", a)
	}
	s5 := New(1)
	cpu := NewCPU(s5, 1, Microsecond)
	compute := func(p *Proc) { cpu.Compute(p, 3*Microsecond) }
	if a := handoffAllocs(t, s5, compute, compute); a > 0 {
		t.Errorf("CPU time-slicing allocates %.1f times per op", a)
	}
}

// handoffAllocs reports the steady-state allocations per call of op, run
// by one process while a daemon partner repeats partner until the
// measurement ends.
func handoffAllocs(t *testing.T, s *Simulator, op, partner func(p *Proc)) float64 {
	t.Helper()
	var allocs float64
	done := false
	s.Spawn("measure", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() { op(p) })
		done = true
	})
	s.SpawnDaemon("partner", func(p *Proc) {
		for !done {
			partner(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestQueueFIFOProperty drives a Queue with random Push (from the
// process and from callbacks), Pop, TryPop and Len against a reference
// slice, with the length swinging so pops leave a dead prefix and pushes
// cross the compaction boundary many times.
func TestQueueFIFOProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s := New(seed)
		q := NewQueue[int](s)
		var ref []int
		next, maxLen := 0, 0
		push := func() {
			q.Push(next)
			ref = append(ref, next)
			next++
			maxLen = max(maxLen, len(ref))
		}
		s.Spawn("driver", func(p *Proc) {
			rng := s.Rand()
			for op := 0; op < 4000; op++ {
				// Alternate growing and draining phases of random length.
				pushBias := 7
				if (op/150)%2 == 1 {
					pushBias = 3
				}
				switch r := rng.Intn(10); {
				case r < pushBias/2:
					push()
				case r < pushBias:
					s.At(Duration(rng.Intn(3)), push)
					p.Sleep(Duration(rng.Intn(2)))
				case r < 9:
					if len(ref) == 0 {
						// Pop must park until a callback pushes.
						s.At(Nanosecond, push)
					}
					got := q.Pop(p)
					if got != ref[0] {
						t.Fatalf("seed %d op %d: Pop = %d, want %d", seed, op, got, ref[0])
					}
					ref = ref[1:]
				default:
					got, ok := q.TryPop()
					if ok != (len(ref) > 0) || ok && got != ref[0] {
						t.Fatalf("seed %d op %d: TryPop = %d, %v with %v queued", seed, op, got, ok, ref)
					}
					if ok {
						ref = ref[1:]
					}
				}
				if q.Len() != len(ref) {
					t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), len(ref))
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for len(ref) > 0 {
			got, ok := q.TryPop()
			if !ok || got != ref[0] {
				t.Fatalf("seed %d drain: TryPop = %d, %v, want %d", seed, got, ok, ref[0])
			}
			ref = ref[1:]
		}
		if _, ok := q.TryPop(); ok || q.Len() != 0 {
			t.Fatalf("seed %d: queue not empty after drain", seed)
		}
		// Reuse bounds the backing array by the longest the queue got.
		if c := cap(q.items.buf); c > 4*maxLen+8 {
			t.Fatalf("seed %d: backing array grew to %d for at most %d items", seed, c, maxLen)
		}
	}
}
