// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of cooperating processes (Proc) in virtual
// time. Each process is a coroutine (iter.Pull): it runs only while the
// kernel has switched to it and blocks only through sim primitives, so
// exactly one of Run's goroutine and the processes runs at any instant.
// iter.Pull's switches also establish the happens-before edges that make
// cross-process data access race-free without further locking.
//
// There is no dedicated scheduler loop. Whoever holds the baton drains
// the event queue: a process that parks runs callback events inline and
// returns at once when its own wake-up is the next event (the Sleep fast
// path, free of any switch). When another process's wake-up pops, the
// holder records that process as the hand-off target and yields to Run,
// which resumes the target: a hand-off is two coroutine switches and
// never passes through the Go scheduler's run queue.
//
// The event queue is a hand-rolled binary heap of event values — no
// container/heap interface boxing, no per-event heap allocation — and
// process wake-ups are encoded as a field of the event rather than a
// closure. Wait lists (Queue, Mutex, Cond, CPU) are FIFOs that reuse
// their backing arrays, so the steady-state Sleep, hand-off and
// queue/lock paths allocate nothing.
//
// All simulation objects (Mutex, Cond, Queue, Gate, CPU) block in
// virtual time, never in host time. Event ties are broken FIFO by a
// monotonically increasing sequence number, so a simulation with a fixed
// seed is fully reproducible.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
)

// Time is an absolute instant in virtual nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports d as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

// Seconds reports t as a floating-point number of seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled occurrence, stored by value in the heap. Exactly
// one of p and fn is set: p is a process to resume (the allocation-free
// encoding of a wake-up), fn is a callback that runs on the baton
// holder's goroutine and must not block.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
}

// eventHeap is a binary min-heap of events ordered by (t, seq). Events
// are values in a reusable slice: pushing never allocates in steady
// state, and popped slots are zeroed so fn closures and Proc pointers
// are not retained through the backing array.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool {
	if h.ev[i].t != h.ev[j].t {
		return h.ev[i].t < h.ev[j].t
	}
	return h.ev[i].seq < h.ev[j].seq
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // clear the slot: do not leak fn/p past the pop
	h.ev = h.ev[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.ev[i], h.ev[m] = h.ev[m], h.ev[i]
		i = m
	}
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still parked: no event can ever wake them again.
type DeadlockError struct {
	// Parked lists "name: reason" for every process still blocked.
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d process(es) parked: %s",
		len(e.Parked), strings.Join(e.Parked, "; "))
}

// ErrCanceled matches (via errors.Is) every *CanceledError a canceled
// run returns.
var ErrCanceled = errors.New("sim: run canceled")

// CanceledError is returned by Run when the cancellation hook installed
// with SetCancel fired: the event loop stopped at a poll point, every
// process was unwound, and the hook's cause is carried here.
type CanceledError struct {
	// Cause is the non-nil error the cancel hook returned.
	Cause error
	// At is the virtual time the cancellation was detected.
	At Time
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled at %v: %v", e.At, e.Cause)
}

// Unwrap exposes the hook's cause to errors.Is/As chains.
func (e *CanceledError) Unwrap() error { return e.Cause }

// Is matches the ErrCanceled sentinel.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// PanicError is returned by Run when simulation code panicked: a process
// body, an event callback, or the cancellation hook. The run ends there
// as a canceled run does — every process is unwound — and the recovered
// value and the stack at the panic site are carried here.
type PanicError struct {
	// Proc names the process that was running when the panic was raised:
	// in its body, in a callback it drained while parked or exiting, or
	// in a deferred call teardown ran while unwinding it. Empty when the
	// panic came from a callback (or the cancellation hook) Run drained
	// itself before it first started a process.
	Proc string
	// At is the virtual time of the panic.
	At Time
	// Value is the recovered panic value.
	Value any
	// Stack is the stack at the panic site.
	Stack string
}

func (e *PanicError) Error() string {
	if e.Proc == "" {
		return fmt.Sprintf("sim: panic at %v: %v", e.At, e.Value)
	}
	return fmt.Sprintf("sim: process %s panicked at %v: %v", e.Proc, e.At, e.Value)
}

// Unwrap exposes Value to errors.Is/As chains when it is an error.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// abortUnwind is the internal panic sentinel teardown uses to unwind a
// process's stack. procExit recovers it; it never escapes the package.
type abortUnwind struct{}

// DefaultCancelEvery is the event-count granularity of cancellation
// polls when SetCancel is given a non-positive interval.
const DefaultCancelEvery = 2048

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now    Time
	seq    uint64
	queue  eventHeap
	live   int
	nextID int
	rng    *rand.Rand
	ran    bool

	// handoff is the process Run resumes next: the baton holder sets it
	// when another process's wake pops, then yields (or returns, when it
	// is exiting) to Run.
	handoff *Proc

	// Cooperative cancellation (SetCancel), panics and end-of-run
	// teardown. procs registers every spawned process so teardown can
	// stop the coroutines still suspended; aborting is set once the run
	// stops executing events.
	cancelFn    func() error
	cancelEvery int
	cancelTick  int
	cancelErr   error       // the hook's cause; non-nil once the run is canceled
	panicErr    *PanicError // the first panic; non-nil once the run panicked
	aborting    bool
	procs       []*Proc
}

// New creates a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// SetCancel installs a cooperative cancellation hook, polled from the
// event loop every `every` processed events (DefaultCancelEvery when
// every <= 0). A non-nil return cancels the run: the kernel stops at the
// poll point, unwinds every process, and Run returns a
// *CanceledError (errors.Is-matchable against ErrCanceled) wrapping the
// hook's cause. Must be called before Run.
func (s *Simulator) SetCancel(check func() error, every int) {
	if s.ran {
		panic("sim: SetCancel after Run")
	}
	if every <= 0 {
		every = DefaultCancelEvery
	}
	s.cancelFn = check
	s.cancelEvery = every
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. It must only
// be used from simulation context (a running Proc or an event callback).
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// push enqueues e at absolute time t (clamped to now), assigning the
// FIFO tie-break sequence number.
func (s *Simulator) push(t Time, e event) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.t = t
	e.seq = s.seq
	s.queue.push(e)
}

// schedule enqueues fn to run at absolute time t (clamped to now).
func (s *Simulator) schedule(t Time, fn func()) {
	s.push(t, event{fn: fn})
}

// At schedules fn to run d from now, inline on the baton holder.
// fn must not block; use Spawn for blocking activities.
func (s *Simulator) At(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+Time(d), fn)
}

// ConfigureLanes has no effect; kept only because bench/e2e names it;
// ROADMAP 1(a) deletes it.
func (s *Simulator) ConfigureLanes(n, workers int, lookahead Duration, relaxed bool) {}

// AtFrom is At, and src and dst have no effect; kept only because
// bench/e2e names it; ROADMAP 1(a) deletes it.
func (s *Simulator) AtFrom(src, dst int, d Duration, fn func()) { s.At(d, fn) }

// Proc is a simulated process: a coroutine that runs only when the
// kernel switches to it and blocks only through sim primitives.
type Proc struct {
	sim    *Simulator
	name   string
	id     int
	next   func() (struct{}, bool) // resume p (Run's side of the coroutine)
	stop   func()                  // unwind p at teardown
	yield  func(struct{}) bool     // suspend p (p's side); false once stopped
	reason string                  // why p is parked (reported on deadlock); "" when not
	exited bool
	daemon bool
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns a unique small integer assigned at Spawn time.
func (p *Proc) ID() int { return p.id }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a process and schedules it to start at the current
// virtual time. It may be called before Run or from simulation context.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawn(name, fn, false)
}

// SpawnDaemon creates a process that does not keep the simulation alive:
// a daemon parked forever (e.g. a communication thread blocked on an
// empty mailbox) is not a deadlock. It is unwound when the simulation
// ends, so completed runs leak nothing.
func (s *Simulator) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return s.spawn(name, fn, true)
}

func (s *Simulator) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	s.nextID++
	p := &Proc{sim: s, name: name, id: s.nextID, daemon: daemon}
	if !daemon {
		s.live++
	}
	s.procs = append(s.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer s.procExit(p)
		fn(p)
		p.exited = true
		if !p.daemon {
			s.live--
		}
		// The exiting process holds the baton; keep draining events
		// inline until the baton moves on (Run resumes s.handoff), the
		// queue empties or the run is canceled.
		s.schedLoop(nil)
	})
	s.push(s.now, event{p: p})
	return p
}

// procExit is the deferred tail of every process coroutine: it recovers
// the teardown sentinel or a real panic and marks the process gone, so
// no panic ever reaches iter.Pull. A real panic ends the run: Run
// returns it as a *PanicError after tearing the rest down.
func (s *Simulator) procExit(p *Proc) {
	r := recover()
	if r == nil {
		return
	}
	p.exited = true
	if _, ok := r.(abortUnwind); !ok {
		s.recordPanic(p.name, r)
	}
}

// recordPanic keeps the run's first panic and stops the run. Called from
// a deferred recover, so debug.Stack still holds the panicking frames.
func (s *Simulator) recordPanic(proc string, v any) {
	if s.panicErr == nil {
		s.panicErr = &PanicError{Proc: proc, At: s.now, Value: v, Stack: string(debug.Stack())}
	}
	s.aborting = true
}

// checkCancel polls the cancellation hook on the event loop
// (single-threaded, so plain fields are safe). It reports true once the
// run is canceled.
func (s *Simulator) checkCancel() bool {
	if s.cancelFn == nil {
		return false
	}
	if s.cancelErr != nil {
		return true
	}
	s.cancelTick++
	if s.cancelTick < s.cancelEvery {
		return false
	}
	s.cancelTick = 0
	if err := s.cancelFn(); err != nil {
		s.cancelErr = err
		return true
	}
	return false
}

// loopOutcome reports why schedLoop stopped draining events.
type loopOutcome int

const (
	// loopResumed: self's wake event fired; the caller continues.
	loopResumed loopOutcome = iota
	// loopHandedOff: the baton moved to s.handoff (self == nil).
	loopHandedOff
	// loopDrained: the queue is empty; the simulation is over.
	loopDrained
	// loopCanceled: the cancellation hook fired; stop executing events.
	loopCanceled
)

// schedLoop drains the event queue on behalf of self (nil for Run or an
// exiting process). Callback events run inline; a wake event for self
// returns immediately — the allocation- and switch-free resume path; a
// wake event for another process records it as s.handoff, after which a
// nil self returns loopHandedOff and a parked self yields to Run until
// its own wake-up hands the baton back.
func (s *Simulator) schedLoop(self *Proc) loopOutcome {
	// cancelFn is immutable once Run starts; hoisting the nil test out
	// of the loop keeps the disabled path at one register-resident
	// branch per event instead of a field load or a function call.
	cancelable := s.cancelFn != nil
	for s.queue.len() > 0 {
		if cancelable && s.checkCancel() {
			s.aborting = true
			return loopCanceled
		}
		ev := s.queue.pop()
		s.now = ev.t
		if ev.p == nil {
			ev.fn()
			continue
		}
		q := ev.p
		q.reason = ""
		if q == self {
			return loopResumed
		}
		s.handoff = q
		if self == nil {
			return loopHandedOff
		}
		self.suspend()
		return loopResumed
	}
	return loopDrained
}

// suspend yields p's coroutine to Run. It returns when Run resumes p and
// unwinds p when teardown stops it instead.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(abortUnwind{})
	}
}

// park blocks p until some event wakes it. reason is reported on deadlock.
func (p *Proc) park(reason string) {
	s := p.sim
	if s.aborting {
		// Teardown is unwinding this process and a defer (or the unwind
		// path itself) re-entered the kernel: keep unwinding.
		panic(abortUnwind{})
	}
	p.reason = reason
	switch s.schedLoop(p) {
	case loopDrained:
		// The queue drained while p was parked: nothing can ever wake p
		// again. Yield to Run (which reports the deadlock or ignores a
		// parked daemon); teardown's stop unwinds p.
		p.suspend()
		panic(abortUnwind{})
	case loopCanceled:
		// p detected the cancellation while holding the baton: unwind;
		// the coroutine's return hands control to Run.
		panic(abortUnwind{})
	}
}

// wakeAt schedules p to be resumed at time t. Exactly one wakeAt must be
// issued per park.
func (s *Simulator) wakeAt(t Time, p *Proc) {
	s.push(t, event{p: p})
}

// wake schedules p to be resumed at the current time.
func (s *Simulator) wake(p *Proc) {
	s.wakeAt(s.now, p)
}

// Sleep blocks p for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.sim.wakeAt(p.Now()+Time(d), p)
	p.park("sleep")
}

// Yield reschedules p at the current time behind already-pending events,
// letting same-instant events run first.
func (p *Proc) Yield() {
	p.sim.wake(p)
	p.park("yield")
}

// Run executes events until the queue drains. It returns nil when every
// spawned process has exited, a *DeadlockError when processes remain
// parked with no event left to wake them, a *CanceledError when the
// SetCancel hook fired, and a *PanicError when simulation code panicked.
// In every case the kernel tears its processes down before returning:
// parked daemons, deadlocked processes, and canceled or panicked runs
// all unwind, so a completed Run leaks nothing.
func (s *Simulator) Run() error {
	if s.ran {
		return fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	s.runLoop()
	// The baton circulates among the processes: each one that parks or
	// exits while another's wake is next leaves it in s.handoff. The loop
	// ends when one drains the queue, detects cancellation or panics.
	for s.handoff != nil {
		q := s.handoff
		s.handoff = nil
		q.next()
	}
	var err error
	switch {
	case s.aborting && s.panicErr == nil:
		err = &CanceledError{Cause: s.cancelErr, At: s.now}
	case s.live > 0:
		var parked []string
		for _, p := range s.procs {
			if p.reason != "" && !p.daemon {
				parked = append(parked, p.name+": "+p.reason)
			}
		}
		sort.Strings(parked)
		err = &DeadlockError{Parked: parked}
	}
	// Tear down the processes the run leaves suspended (parked daemons
	// always; parked processes too on deadlock, cancel or panic), one at
	// a time: stop makes a parked process's yield return false, and a
	// process whose start event never fired is never started. The index
	// loop also reaches a process a deferred call spawns while unwinding.
	s.aborting = true
	for i := 0; i < len(s.procs); i++ {
		s.procs[i].stop()
	}
	if s.panicErr != nil {
		// The run panicked, or a deferred call panicked while teardown
		// unwound its process: a panic wins over every other ending.
		return s.panicErr
	}
	return err
}

// runLoop is Run's own turn at the event loop, before it first starts a
// process: a panic in a callback (or the cancellation hook) it runs ends
// the run like a panic in a process.
func (s *Simulator) runLoop() {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic("", r)
		}
	}()
	s.schedLoop(nil)
}
