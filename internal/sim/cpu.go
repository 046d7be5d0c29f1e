package sim

// CPU models the processors of one simulated SMP node: a pool of slots
// scheduled round-robin with a fixed quantum. A process that wants to
// burn compute time calls Compute; while more runnable processes exist
// than slots, each runs for at most one quantum before re-queueing, which
// approximates an OS time-slicing scheduler. This contention is what
// separates the paper's 1Thread-1CPU configuration (computation and the
// communication thread share one processor) from 1Thread-2CPU.
type CPU struct {
	sim     *Simulator
	slots   int
	quantum Duration
	busy    int
	queue   fifo[*Proc]

	// BusyTime accumulates slot-occupancy for utilization reporting.
	BusyTime Duration

	// WaitTime accumulates the time processes spent queued for a busy
	// slot (the 1Thread-1CPU contention signal).
	WaitTime Duration

	// OnWait, when set, observes each such wait as it ends. It is a plain
	// func field rather than an interface so the disabled path is a
	// single nil check on the already-slow queueing branch; sim cannot
	// import internal/obs (obs uses sim's time types), so the runtime
	// wires a closure here.
	OnWait func(d Duration)
}

// DefaultQuantum approximates a Linux 2.4-era scheduler time slice.
const DefaultQuantum = 1 * Millisecond

// NewCPU creates a CPU pool with the given number of slots. A quantum of
// zero selects DefaultQuantum.
func NewCPU(s *Simulator, slots int, quantum Duration) *CPU {
	if slots < 1 {
		panic("sim: CPU needs at least one slot")
	}
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &CPU{sim: s, slots: slots, quantum: quantum}
}

// Slots returns the number of processors in the pool.
func (c *CPU) Slots() int { return c.slots }

// acquire takes a processor slot, queueing FIFO when all are busy.
func (c *CPU) acquire(p *Proc) {
	if c.busy < c.slots {
		c.busy++
		return
	}
	c.queue.push(p)
	t0 := p.Now()
	p.park("cpu")
	// Ownership is transferred by release; busy already accounts for us.
	d := Duration(p.Now() - t0)
	c.WaitTime += d
	if c.OnWait != nil {
		c.OnWait(d)
	}
}

// release frees a slot or hands it directly to the oldest waiter.
func (c *CPU) release() {
	if c.queue.len() > 0 {
		c.sim.wake(c.queue.pop())
		return // slot stays busy, transferred to the oldest waiter
	}
	c.busy--
}

// Compute charges d of processor time to p, contending with other
// processes for the pool's slots. When the pool is uncontended the whole
// duration is charged in one event; under contention p runs one quantum
// at a time and round-robins with the other runnable processes.
func (c *CPU) Compute(p *Proc, d Duration) {
	for d > 0 {
		c.acquire(p)
		slice := d
		// While every slot is occupied a new arrival would have to queue,
		// so bound the slice by one quantum to keep preemption latency low.
		if c.busy == c.slots && slice > c.quantum {
			slice = c.quantum
		}
		p.Sleep(slice)
		c.BusyTime += slice
		d -= slice
		c.release()
	}
}
