package sim

// Mutex is a virtual-time mutual-exclusion lock with FIFO hand-off.
// It models a pthread mutex inside one simulated SMP node.
type Mutex struct {
	sim     *Simulator
	owner   *Proc
	waiters []*Proc
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
	m.waiters = append(m.waiters, p)
	p.park("mutex")
}

// Unlock releases the mutex and hands it to the oldest waiter, if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.name)
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	m.sim.wake(next)
}

// Cond is a virtual-time condition variable associated with a Mutex.
type Cond struct {
	mu      *Mutex
	waiters []*Proc
}

// NewCond creates a condition variable using mu for its monitor.
func NewCond(mu *Mutex) *Cond { return &Cond{mu: mu} }

// Wait atomically releases the mutex, parks p, and re-acquires the mutex
// once p is signalled. The caller must hold the mutex.
func (c *Cond) Wait(p *Proc) {
	if c.mu.owner != p {
		panic("sim: Cond.Wait without mutex held")
	}
	c.waiters = append(c.waiters, p)
	c.mu.Unlock(p)
	p.park("cond")
	c.mu.Lock(p)
}

// Signal wakes the oldest waiter, if any. The caller should hold the mutex.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.mu.sim.wake(w)
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.mu.sim.wake(w)
	}
	c.waiters = nil
}

// Queue is an unbounded FIFO whose Pop blocks in virtual time. Push may
// be called from any simulation context, including event callbacks, which
// makes it the natural mailbox between the network and a node's
// communication thread.
type Queue[T any] struct {
	sim     *Simulator
	items   []T
	waiters []*Proc
}

// NewQueue creates an empty queue bound to s.
func NewQueue[T any](s *Simulator) *Queue[T] { return &Queue[T]{sim: s} }

// Push appends v and wakes one blocked Pop, if any.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.sim.wake(w)
	}
}

// Pop removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park("queue")
	}
	v := q.items[0]
	q.items = q.items[1:]
	// A Push wakes only one waiter; if items remain and more waiters
	// exist (multiple Pushes raced with parked Pops), cascade the wake.
	if len(q.items) > 0 && len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.sim.wake(w)
	}
	return v
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

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
