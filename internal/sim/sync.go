package sim

// fifo is a first-in first-out list that reuses its backing array: a
// head index advances on pop and resets to zero when the list drains,
// and a push into a full array whose dead prefix is at least half of it
// compacts the live items to the front instead of growing. A queue whose
// length stays bounded therefore stops allocating once its array has
// grown to that bound. Popped slots are zeroed so the array does not
// retain what it handed out.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the oldest item; the list must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}

// wakeOldest wakes the longest-parked process in w, if any.
func (s *Simulator) wakeOldest(w *fifo[*Proc]) {
	if w.len() > 0 {
		s.wake(w.pop())
	}
}

// Mutex is a virtual-time mutual-exclusion lock with FIFO hand-off.
// It models a pthread mutex inside one simulated SMP node.
type Mutex struct {
	sim     *Simulator
	owner   *Proc
	waiters fifo[*Proc]
}

// NewMutex creates a mutex bound to s.
func NewMutex(s *Simulator) *Mutex { return &Mutex{sim: s} }

// Lock blocks p until it owns the mutex.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by " + p.name)
	}
	m.waiters.push(p)
	p.park("mutex")
}

// Unlock releases the mutex and hands it to the oldest waiter, if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.name)
	}
	if m.waiters.len() == 0 {
		m.owner = nil
		return
	}
	next := m.waiters.pop()
	m.owner = next
	m.sim.wake(next)
}

// Cond is a virtual-time condition variable associated with a Mutex.
type Cond struct {
	mu      *Mutex
	waiters fifo[*Proc]
}

// NewCond creates a condition variable using mu for its monitor.
func NewCond(mu *Mutex) *Cond { return &Cond{mu: mu} }

// Wait atomically releases the mutex, parks p, and re-acquires the mutex
// once p is signalled. The caller must hold the mutex.
func (c *Cond) Wait(p *Proc) {
	if c.mu.owner != p {
		panic("sim: Cond.Wait without mutex held")
	}
	c.waiters.push(p)
	c.mu.Unlock(p)
	p.park("cond")
	c.mu.Lock(p)
}

// Signal wakes the oldest waiter, if any. The caller should hold the mutex.
func (c *Cond) Signal() { c.mu.sim.wakeOldest(&c.waiters) }

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.mu.sim.wake(c.waiters.pop())
	}
}

// Queue is an unbounded FIFO whose Pop blocks in virtual time. Push may
// be called from any simulation context, including event callbacks, which
// makes it the natural mailbox between the network and a node's
// communication thread.
type Queue[T any] struct {
	sim     *Simulator
	items   fifo[T]
	waiters fifo[*Proc]
}

// NewQueue creates an empty queue bound to s.
func NewQueue[T any](s *Simulator) *Queue[T] { return &Queue[T]{sim: s} }

// Push appends v and wakes one blocked Pop, if any.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	q.sim.wakeOldest(&q.waiters)
}

// Pop removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.items.len() == 0 {
		q.waiters.push(p)
		p.park("queue")
	}
	v := q.items.pop()
	// A Push wakes only one waiter; if items remain and more waiters
	// exist (multiple Pushes raced with parked Pops), cascade the wake.
	if q.items.len() > 0 {
		q.sim.wakeOldest(&q.waiters)
	}
	return v
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Gate is a one-shot event: Wait blocks until Open is called, after
// which all current and future waiters pass immediately. It is the
// natural primitive for "page fetch complete" and "barrier departure"
// notifications raised by a communication thread.
type Gate struct {
	sim     *Simulator
	open    bool
	waiters []*Proc
}

// NewGate creates a closed gate.
func NewGate(s *Simulator) *Gate { return &Gate{sim: s} }

// Wait blocks p until the gate opens (or returns at once if it has).
func (g *Gate) Wait(p *Proc) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park("gate")
}

// Open releases all waiters and lets future Waits pass. Idempotent.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, p := range g.waiters {
		g.sim.wake(p)
	}
	g.waiters = nil
}
