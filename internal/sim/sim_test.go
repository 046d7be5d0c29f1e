package sim

import (
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New(1)
	var woke Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		woke = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-3)
		ran = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process did not complete")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v on zero sleep", s.Now())
	}
}

func TestEventOrderingFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Duration(0), func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestAtOrdersByTime(t *testing.T) {
	s := New(1)
	var order []int
	s.At(3*Microsecond, func() { order = append(order, 3) })
	s.At(1*Microsecond, func() { order = append(order, 1) })
	s.At(2*Microsecond, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("got order %v", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	mu := NewMutex(s)
	cond := NewCond(mu)
	s.Spawn("stuck", func(p *Proc) {
		mu.Lock(p)
		cond.Wait(p) // never signalled
	})
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck: cond" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	s := New(1)
	mu := NewMutex(s)
	var order []string
	inside := 0
	body := func(p *Proc) {
		mu.Lock(p)
		inside++
		if inside != 1 {
			t.Errorf("mutual exclusion violated")
		}
		p.Sleep(1 * Millisecond)
		order = append(order, p.Name())
		inside--
		mu.Unlock(p)
	}
	for _, n := range []string{"a", "b", "c"} {
		n := n
		s.Spawn(n, body)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("lock hand-off order %v, want FIFO", order)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	s := New(1)
	mu := NewMutex(s)
	cond := NewCond(mu)
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn("waiter", func(p *Proc) {
			mu.Lock(p)
			ready++
			cond.Wait(p)
			woken++
			mu.Unlock(p)
		})
	}
	s.Spawn("signaller", func(p *Proc) {
		p.Sleep(Millisecond)
		mu.Lock(p)
		cond.Signal()
		mu.Unlock(p)
		p.Sleep(Millisecond)
		mu.Lock(p)
		cond.Broadcast()
		mu.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ready != 3 || woken != 3 {
		t.Fatalf("ready=%d woken=%d", ready, woken)
	}
}

func TestQueueBlockingPop(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(Millisecond)
			q.Push(i * 10)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestQueuePushFromEventCallback(t *testing.T) {
	s := New(1)
	q := NewQueue[string](s)
	var got string
	s.Spawn("consumer", func(p *Proc) { got = q.Pop(p) })
	s.At(2*Millisecond, func() { q.Push("hello") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if s.Now() != Time(2*Millisecond) {
		t.Fatalf("ended at %v", s.Now())
	}
}

func TestQueueMultipleWaitersCascade(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	sum := 0
	for i := 0; i < 3; i++ {
		s.Spawn("c", func(p *Proc) { sum += q.Pop(p) })
	}
	s.At(Millisecond, func() {
		q.Push(1)
		q.Push(2)
		q.Push(4)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 7 {
		t.Fatalf("sum=%d, want 7", sum)
	}
}

func TestQueueTryPop(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	q.Push(9)
	if q.Len() != 1 {
		t.Fatalf("Len=%d", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != 9 {
		t.Fatalf("TryPop = %v,%v", v, ok)
	}
}

func TestCPUUncontendedRunsFullSlice(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s, 2, DefaultQuantum)
	var end Time
	s.Spawn("p", func(p *Proc) {
		cpu.Compute(p, 10*Millisecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(10*Millisecond) {
		t.Fatalf("finished at %v, want 10ms", end)
	}
}

func TestCPUContentionSerializes(t *testing.T) {
	// Two processes each needing 10ms on a single CPU must take 20ms
	// total, and time-slicing should let them finish within one quantum
	// of each other.
	s := New(1)
	cpu := NewCPU(s, 1, Millisecond)
	var ends []Time
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) {
			cpu.Compute(p, 10*Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(20*Millisecond) {
		t.Fatalf("makespan %v, want 20ms", s.Now())
	}
	gap := ends[1] - ends[0]
	if gap < 0 {
		gap = -gap
	}
	if gap > Time(Millisecond) {
		t.Fatalf("ends %v not round-robin fair", ends)
	}
}

func TestCPUTwoSlotsRunInParallel(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s, 2, Millisecond)
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) { cpu.Compute(p, 10*Millisecond) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(10*Millisecond) {
		t.Fatalf("makespan %v, want 10ms (parallel)", s.Now())
	}
}

func TestCPUBusyTimeAccounting(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s, 1, Millisecond)
	s.Spawn("p", func(p *Proc) { cpu.Compute(p, 7*Millisecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if cpu.BusyTime != 7*Millisecond {
		t.Fatalf("BusyTime=%v, want 7ms", cpu.BusyTime)
	}
}

func TestCPUPreemptionBoundsLatency(t *testing.T) {
	// A long compute on a fully-busy single CPU must not starve a late
	// arrival for more than ~one quantum before it gets its first slice.
	s := New(1)
	q := Millisecond
	cpu := NewCPU(s, 1, q)
	var firstSlice Time
	s.Spawn("hog", func(p *Proc) { cpu.Compute(p, 100*Millisecond) })
	s.Spawn("latecomer", func(p *Proc) {
		p.Sleep(Duration(10*Millisecond) + Duration(q)/2)
		cpu.Compute(p, Duration(q))
		firstSlice = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Arrival at 10.5ms; hog's current quantum ends at 11ms; latecomer
	// then runs 1ms -> done by 12ms.
	if firstSlice > Time(13*Millisecond) {
		t.Fatalf("latecomer finished first slice at %v, starved", firstSlice)
	}
}

func TestSpawnFromWithinProc(t *testing.T) {
	s := New(1)
	childRan := false
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Sleep(Millisecond)
			childRan = true
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
	if s.Now() != Time(2*Millisecond) {
		t.Fatalf("ended at %v", s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		s := New(42)
		cpu := NewCPU(s, 2, Millisecond)
		q := NewQueue[int](s)
		var trace []Time
		for i := 0; i < 4; i++ {
			s.Spawn("w", func(p *Proc) {
				d := Duration(1+s.Rand().Intn(5)) * Millisecond
				cpu.Compute(p, d)
				q.Push(p.ID())
				trace = append(trace, p.Now())
			})
		}
		s.Spawn("drain", func(p *Proc) {
			for i := 0; i < 4; i++ {
				q.Pop(p)
				trace = append(trace, p.Now())
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	s := New(1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.50us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.0000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Property: for any set of compute demands on one CPU, the makespan
// equals the sum of the demands (work conservation), and BusyTime
// equals that sum.
func TestCPUWorkConservationProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		s := New(7)
		cpu := NewCPU(s, 1, Millisecond)
		var total Duration
		for _, r := range raw {
			d := Duration(r%2000+1) * Microsecond
			total += d
			s.Spawn("w", func(p *Proc) { cpu.Compute(p, d) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		return s.Now() == Time(total) && cpu.BusyTime == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: mutex hand-off never lets two holders overlap regardless of
// sleep pattern inside the critical section.
func TestMutexExclusionProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 10 {
			return true
		}
		s := New(3)
		mu := NewMutex(s)
		inside := 0
		ok := true
		for _, r := range raw {
			d := Duration(r%100+1) * Microsecond
			s.Spawn("w", func(p *Proc) {
				p.Sleep(Duration(s.Rand().Intn(50)) * Microsecond)
				mu.Lock(p)
				inside++
				if inside != 1 {
					ok = false
				}
				p.Sleep(d)
				inside--
				mu.Unlock(p)
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGateSemantics(t *testing.T) {
	s := New(1)
	g := NewGate(s)
	if g.open {
		t.Fatal("new gate already open")
	}
	passed := 0
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			g.Wait(p)
			passed++
		})
	}
	s.At(Millisecond, func() { g.Open(); g.Open() }) // idempotent
	s.Spawn("late", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		g.Wait(p) // already open: passes immediately
		passed++
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if passed != 4 || !g.open {
		t.Fatalf("passed=%d opened=%v", passed, g.open)
	}
}

func TestDaemonDoesNotBlockCompletion(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	s.SpawnDaemon("pump", func(p *Proc) {
		for {
			q.Pop(p) // parked forever after the producer exits
		}
	})
	s.Spawn("producer", func(p *Proc) {
		q.Push(1)
		p.Sleep(Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

func TestYieldRunsPendingEventsFirst(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("p", func(p *Proc) {
		s.At(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "after")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "after" {
		t.Fatalf("order %v", order)
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	a1, a2 := New(7).Rand().Int63(), New(7).Rand().Int63()
	b1 := New(8).Rand().Int63()
	if a1 != a2 {
		t.Fatal("same seed diverged")
	}
	if a1 == b1 {
		t.Fatal("different seeds identical (suspicious)")
	}
}
