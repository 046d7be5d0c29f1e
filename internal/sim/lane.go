// Lane mode: a conservatively synchronized parallel extension of the
// sequential kernel in sim.go.
//
// In lane mode the simulation is partitioned into per-node event lanes.
// Each lane is a complete miniature of the legacy kernel — its own event
// heap, clock, FIFO sequence counter, parked set, and deterministic
// random stream — and the lanes execute in bounded time windows under a
// conservative lookahead rule:
//
//	window k executes every event with t in [T_k, H_k), where T_k is
//	the minimum pending event time across all lanes and
//	H_k = min(T_k + lookahead, next serial event time).
//
// The lookahead bound is the minimum cross-lane interaction delay (the
// fabric's one-way wire latency): an event executing at t < H can only
// schedule work on another lane at t' >= t + lookahead >= H, so events
// inside one window are causally independent across lanes and may run
// concurrently. Cross-lane insertions made during a window are staged in
// per-source outboxes and merged at the window barrier in the canonical
// order (virtual time, then source lane id, then source insertion
// order); destination sequence numbers are assigned in that merge order,
// so the resulting schedule is a pure function of the simulation inputs
// — independent of GOMAXPROCS, the number of workers, and host
// scheduling. lanes=1 (one worker) executes the identical windowed
// schedule serially and is the degenerate case of the same algorithm,
// which is what makes "lanes=1 vs lanes=N bit-identical" holds by
// construction.
//
// Lanes with pending events sit in an indexed min-heap keyed by a
// snapshot of their head time, so T_k is the heap top and a window's
// dispatch set is the heap prefix below H_k, sorted by lane id. The
// barrier merges only the dispatched lanes' outboxes and re-keys only
// the lanes that ran or received merged events: window bookkeeping is
// O(active lanes), not O(lanes).
//
// Windows run on batons, the sequential kernel's rule ("whichever
// goroutine holds the baton drains the queue") applied per window. A
// window opens with min(active lanes, workers) batons: the goroutine
// that opened it plus up to workers-1 parked helper goroutines. A baton
// claims the next lane from an atomic cursor and runs that lane's
// window; a process wake hands the baton to that process, and a process
// whose own wake is next resumes with no channel operation. When no lane
// is left the baton retires, and the baton that retires last runs the
// barrier on its own stack — merge, re-key, due serial events, the
// cancellation check — and then opens the next window. There is no
// coordinator goroutine: a window whose events end in the process that
// started it costs no goroutine switch. Exactly one goroutine runs a
// lane at a time, and the channel hand-offs plus the atomic claim and
// retire operations establish every happens-before edge the Go memory
// model needs: state is either lane-confined or crosses lanes through
// the staged merge, which runs with every lane quiesced.
//
// Relaxed regime: crash-stop recovery intentionally reaches across nodes
// (inbox drains, link resets, buddy restores), which cannot satisfy the
// lookahead rule. When a run arms a crash plan the kernel switches to
// the relaxed regime: the same per-lane structure and windowed clock,
// but a single baton that checks each lane's head in lane-id order when
// it gets there, clamped (rather than rejected) cross-lane insertions,
// and a lane heap rebuilt after every window. Serial execution makes the
// schedule deterministic for any requested lane count, so the
// bit-identity guarantee still holds — crash runs are simply not
// parallelized.
package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"
)

// churnYield is the host-scheduling perturbation used by SetWindowChurn.
func churnYield() { runtime.Gosched() }

// LookaheadError reports a cross-lane event insertion that violates the
// conservative lookahead bound in the strict (parallel) regime.
type LookaheadError struct {
	Src, Dst int
	T        Time // requested event time
	Horizon  Time // current window horizon
}

func (e *LookaheadError) Error() string {
	return fmt.Sprintf("sim: cross-lane event %d->%d at t=%v violates lookahead (window horizon %v)",
		e.Src, e.Dst, e.T, e.Horizon)
}

// xev is a cross-lane event staged in a source lane's outbox during a
// window. Outbox append order is the source-local tie-break: the merge
// sorts by (t, srcLane, append index).
type xev struct {
	t   Time
	dst int
	p   *Proc
	fn  func()
}

// SyncHist is a log2-bucketed histogram of host-time lane synchronization
// latencies (the wait between a lane finishing one window and starting
// its next), using the same bucket scheme as internal/obs: bucket i holds
// values v with bits.Len64(v) == i. sim cannot import obs, so the bucket
// counts are merged into an obs histogram by the caller.
type SyncHist struct {
	Count, Sum, Min, Max int64
	Buckets              [65]int64
}

func (h *SyncHist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(uint64(v))]++
}

func (h *SyncHist) merge(o *SyncHist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

// LaneStat is one lane's utilization record: host time spent executing
// windows (busy) vs waiting between windows (stall), with window and
// event tallies. Utilization is BusyNs/(BusyNs+StallNs).
type LaneStat struct {
	Lane    int
	Windows uint64
	Events  uint64
	BusyNs  int64
	StallNs int64
}

// lane is one per-node event lane: a self-contained sequential kernel
// plus its entry in the pending-lane heap.
type lane struct {
	sim    *Simulator
	id     int
	now    Time
	seq    uint64
	queue  eventHeap
	parked map[*Proc]string
	seed   int64      // seed of the lane's random stream
	rng    *rand.Rand // built from seed on first use (see rand)
	outbox []xev

	// Pending-lane heap entry: key is the head time the lane was last
	// re-keyed at (a snapshot, never the live head), slot its heap index
	// (-1 while the lane has no pending event).
	key  Time
	slot int

	cancelTick int // lane-local event count toward the next cancel poll

	// Host-time accounting (observability only; never simulation-visible).
	winStart time.Time
	lastDone time.Time
	ran      bool
	stat     LaneStat
	sync     SyncHist
}

// cancelCheck polls the cancellation hook every cancelEvery lane events
// (lane-local tick, so concurrent lanes never share the counter). It
// reports true once the run is canceled — by this lane's poll or any
// other's — at which point the lane abandons the rest of its window and
// its baton moves on, so the last baton's barrier tears the run down.
func (ln *lane) cancelCheck() bool {
	s := ln.sim
	if s.canceled.Load() {
		return true
	}
	ln.cancelTick++
	if ln.cancelTick < s.cancelEvery {
		return false
	}
	ln.cancelTick = 0
	if err := s.cancelFn(); err != nil {
		s.cancelOnce.Do(func() { s.cancelErr = err })
		s.canceled.Store(true)
		return true
	}
	return false
}

// push enqueues e into this lane at absolute time t (clamped to the
// lane's clock), assigning the lane-local FIFO sequence number.
func (ln *lane) push(t Time, e event) {
	if t < ln.now {
		t = ln.now
	}
	ln.seq++
	e.t = t
	e.seq = ln.seq
	ln.queue.push(e)
}

// rand returns the lane's random stream, built on first use: most runs
// never draw from a lane stream, and a math/rand source is ~5 KB.
func (ln *lane) rand() *rand.Rand {
	if ln.rng == nil {
		ln.rng = rand.New(rand.NewSource(ln.seed))
	}
	return ln.rng
}

// begin opens ln's share of the window on the calling baton. now is the
// host time the baton finished its previous lane (zero: read the clock),
// so a baton running lanes back to back reads the clock once per lane.
func (ln *lane) begin(now time.Time) {
	if now.IsZero() {
		now = time.Now()
	}
	if ln.ran {
		stall := now.Sub(ln.lastDone).Nanoseconds()
		ln.stat.StallNs += stall
		ln.sync.observe(stall)
	}
	ln.ran = true
	ln.winStart = now
	ln.stat.Windows++
	s := ln.sim
	if s.relaxed {
		// One lane executes at a time in the relaxed regime, so the
		// "current lane" is well-defined and legacy At/Now keep working
		// for the crash-recovery paths that rely on them.
		s.cur = ln
	}
	if s.churn {
		for i := 0; i <= ln.id&3; i++ {
			churnYield()
		}
	}
}

// finish closes ln's share of the window at host time now.
func (ln *lane) finish(now time.Time) {
	ln.stat.BusyNs += now.Sub(ln.winStart).Nanoseconds()
	ln.lastDone = now
}

// laneHeap is an indexed binary min-heap of the lanes with pending
// events, ordered by key. Keys are snapshots taken by fix and rebuild,
// not live head reads: a lane's queue changes while it runs, and a heap
// compared on live heads would silently lose its order — a stale key
// must never hide an earlier head.
type laneHeap struct {
	ln []*lane
}

func (h *laneHeap) swap(i, j int) {
	h.ln[i], h.ln[j] = h.ln[j], h.ln[i]
	h.ln[i].slot = i
	h.ln[j].slot = j
}

func (h *laneHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.ln[parent].key <= h.ln[i].key {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *laneHeap) down(i int) {
	n := len(h.ln)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.ln[r].key < h.ln[l].key {
			m = r
		}
		if h.ln[i].key <= h.ln[m].key {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// fix re-keys ln from its queue head: it enters, moves within, or
// leaves the heap.
func (h *laneHeap) fix(ln *lane) {
	if ln.queue.len() == 0 {
		if i := ln.slot; i >= 0 {
			last := len(h.ln) - 1
			h.swap(i, last)
			h.ln[last] = nil
			h.ln = h.ln[:last]
			ln.slot = -1
			if i < last {
				moved := h.ln[i]
				h.up(i)
				h.down(moved.slot)
			}
		}
		return
	}
	ln.key = ln.queue.ev[0].t
	if ln.slot < 0 {
		ln.slot = len(h.ln)
		h.ln = append(h.ln, ln)
	}
	h.up(ln.slot)
	h.down(ln.slot)
}

// rebuild re-keys every lane (after a serial event or a relaxed window,
// either of which may touch any lane's queue).
func (h *laneHeap) rebuild(lanes []*lane) {
	clear(h.ln)
	h.ln = h.ln[:0]
	for _, ln := range lanes {
		ln.slot = -1
		h.fix(ln)
	}
}

// below appends to dst every lane in the subtree at i keyed before H —
// from the root, exactly the lanes with an event in the window.
func (h *laneHeap) below(i int, H Time, dst []*lane) []*lane {
	if i >= len(h.ln) || h.ln[i].key >= H {
		return dst
	}
	dst = append(dst, h.ln[i])
	dst = h.below(2*i+1, H, dst)
	return h.below(2*i+2, H, dst)
}

// splitmix64 expands one root seed into independent per-lane seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4b33b24dc74d9
	return x ^ (x >> 31)
}

// ConfigureLanes switches s into lane mode with n per-node lanes,
// executing at most workers lanes concurrently per window, under the
// given conservative lookahead bound (the minimum cross-lane event
// delay; typically the fabric's one-way latency). relaxed selects the
// serialized regime used under crash plans: cross-lane insertions are
// clamped instead of rejected and workers is forced to 1.
//
// Must be called before any process is spawned and before Run. Lane ids
// are 0..n-1; the runtime wires lane i to simulated node i.
func (s *Simulator) ConfigureLanes(n, workers int, lookahead Duration, relaxed bool) {
	if s.ran || s.running {
		panic("sim: ConfigureLanes after Run")
	}
	if s.nextID != 0 || s.queue.len() > 0 {
		panic("sim: ConfigureLanes after events or processes exist")
	}
	if n < 1 {
		panic("sim: ConfigureLanes needs at least one lane")
	}
	if lookahead <= 0 {
		panic("sim: ConfigureLanes needs a positive lookahead")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if relaxed {
		workers = 1
	}
	seed := s.rng.Int63()
	s.lanes = make([]*lane, n)
	for i := range s.lanes {
		s.lanes[i] = &lane{
			sim:    s,
			id:     i,
			parked: make(map[*Proc]string),
			seed:   int64(splitmix64(uint64(seed) + uint64(i))),
			slot:   -1,
		}
		s.lanes[i].stat.Lane = i
	}
	s.workers = workers
	s.lookahead = lookahead
	s.relaxed = relaxed
}

// Lanes returns the number of configured lanes (0 in legacy mode).
func (s *Simulator) Lanes() int { return len(s.lanes) }

// LaneWorkers returns the configured worker-slot count (0 in legacy mode).
func (s *Simulator) LaneWorkers() int { return s.workers }

// Lookahead returns the configured lookahead bound (0 in legacy mode).
func (s *Simulator) Lookahead() Duration { return s.lookahead }

// Relaxed reports whether lane mode runs in the serialized relaxed regime.
func (s *Simulator) Relaxed() bool { return s.relaxed }

// LaneWindows returns the number of executed time windows.
func (s *Simulator) LaneWindows() uint64 { return s.windows }

// LaneStats returns per-lane utilization records (nil in legacy mode).
// Call after Run.
func (s *Simulator) LaneStats() []LaneStat {
	if s.lanes == nil {
		return nil
	}
	out := make([]LaneStat, len(s.lanes))
	for i, ln := range s.lanes {
		out[i] = ln.stat
	}
	return out
}

// LaneSyncHist returns the merged lane synchronization-latency histogram
// (host nanoseconds a lane waited between finishing one window and
// starting the next). Call after Run.
func (s *Simulator) LaneSyncHist() SyncHist {
	var h SyncHist
	for _, ln := range s.lanes {
		h.merge(&ln.sync)
	}
	return h
}

// SetWindowChurn enables host-scheduling churn at every lane window
// start (a burst of runtime.Gosched calls). Test hook: it perturbs the
// host interleaving of lanes without touching virtual time, so a
// determinism test can assert that results are interleaving-independent.
func (s *Simulator) SetWindowChurn(on bool) { s.churn = on }

// NowOn returns lane ln's clock. It is only safe to call for the lane
// the caller is executing on (lane-confined state, like the clock, must
// not be read across lanes); in legacy mode it returns the global clock.
func (s *Simulator) NowOn(ln int) Time {
	if s.lanes == nil {
		return s.now
	}
	return s.lanes[ln].now
}

// RandOn returns lane ln's deterministic random stream (the global
// stream in legacy mode). Like NowOn it is lane-confined.
func (s *Simulator) RandOn(ln int) *rand.Rand {
	if s.lanes == nil {
		return s.rng
	}
	return s.lanes[ln].rand()
}

// Lane returns the lane id p is bound to (-1 in legacy mode).
func (p *Proc) Lane() int {
	if p.lane == nil {
		return -1
	}
	return p.lane.id
}

// Rand returns the deterministic random stream of p's lane (the global
// stream in legacy mode).
func (p *Proc) Rand() *rand.Rand {
	if p.lane == nil {
		return p.sim.rng
	}
	return p.lane.rand()
}

// SpawnOn creates a process bound to lane ln. Processes may only be
// spawned onto a lane before Run or from that lane's own context.
func (s *Simulator) SpawnOn(ln int, name string, fn func(p *Proc)) *Proc {
	return s.spawnOn(ln, name, fn, false)
}

// SpawnDaemonOn is SpawnOn for daemons (see SpawnDaemon).
func (s *Simulator) SpawnDaemonOn(ln int, name string, fn func(p *Proc)) *Proc {
	return s.spawnOn(ln, name, fn, true)
}

// AtFrom schedules fn to run d after lane src's current time, on lane
// dst. Same-lane calls are ordinary lane-local events. Cross-lane calls
// during a window are staged in src's outbox and merged canonically at
// the window barrier; in the strict regime they must respect the
// lookahead bound (t >= window horizon) or the kernel panics with a
// *LookaheadError. In legacy mode it is equivalent to At.
func (s *Simulator) AtFrom(src, dst int, d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if s.lanes == nil {
		s.schedule(s.now+Time(d), fn)
		return
	}
	from := s.lanes[src]
	t := from.now + Time(d)
	s.laneInsert(from, dst, t, event{fn: fn})
}

// laneInsert routes an event to lane dst with origin lane src.
func (s *Simulator) laneInsert(src *lane, dst int, t Time, e event) {
	if src.id == dst {
		src.push(t, e)
		return
	}
	if !s.running {
		// Single-threaded setup: insert directly.
		s.lanes[dst].push(t, e)
		return
	}
	if s.relaxed {
		// Serialized regime: one lane executes at a time, so a direct
		// clamped insertion is race-free and deterministic.
		s.lanes[dst].push(t, e)
		return
	}
	if t < s.horizon {
		panic(&LookaheadError{Src: src.id, Dst: dst, T: t, Horizon: s.horizon})
	}
	src.outbox = append(src.outbox, xev{t: t, dst: dst, p: e.p, fn: e.fn})
}

// AtSerial schedules fn to run as a serial event d after the serial
// clock (simulation start, or the current serial event's time when
// called from one). Serial events execute at a window boundary with
// every lane quiesced — the one context that may touch any lane's state
// (crash injection, node restart, link resets). Serial events live in
// the simulator's global queue, on its global clock, so in legacy mode
// AtSerial is At.
func (s *Simulator) AtSerial(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+Time(d), fn)
}

// schedLoop drains lane events with t < the current window horizon on
// the calling goroutine, with the same baton discipline as the legacy
// schedLoop: a wake of self returns at once, with no channel operation;
// a wake of another process hands it the baton, after which a nil self
// returns and a process self blocks until its own wake. It reports true
// only when the lane's share of the window is exhausted and the baton
// is still on this goroutine.
func (ln *lane) schedLoop(self *Proc) (exhausted bool) {
	s := ln.sim
	for ln.queue.len() > 0 && ln.queue.ev[0].t < s.horizon {
		if s.cancelFn != nil && ln.cancelCheck() {
			// Canceled: abandon the rest of the window; the barrier
			// tears the run down once every baton has retired.
			break
		}
		ev := ln.queue.pop()
		ln.now = ev.t
		ln.stat.Events++
		if ev.p == nil {
			ev.fn()
			continue
		}
		q := ev.p
		delete(ln.parked, q)
		if q == self {
			return false
		}
		q.resume <- struct{}{}
		if self != nil {
			s.await(self)
		}
		return false
	}
	return true
}

// await blocks self until a baton resumes it, unwinding instead if the
// wake came from teardown.
func (s *Simulator) await(self *Proc) {
	<-self.resume
	if s.aborting {
		panic(abortUnwind{})
	}
}

// runBaton carries a window baton on the calling goroutine: it finishes
// ln's share of the window (nil: none yet), claims and runs further
// lanes until none is left, and retires. The baton that retires last
// runs the barrier and keeps a baton of the next window, so the loop
// continues until the baton leaves this goroutine.
//
// self is the process the goroutine belongs to, or nil for a helper,
// Run's goroutine, or a process that has exited. With a process self,
// runBaton returns once self's wake event has fired. With a nil self it
// returns when the baton moves on, reporting true if the run is over
// (this goroutine ran the final barrier; whoever waits on s.done must
// be told).
func (s *Simulator) runBaton(self *Proc, ln *lane) (over bool) {
	var end time.Time
	for {
		if ln != nil {
			if !ln.schedLoop(self) {
				return false
			}
			end = time.Now()
			ln.finish(end)
		}
		if ln = s.claim(); ln != nil {
			ln.begin(end)
			continue
		}
		if s.batons.Add(-1) > 0 {
			// Retired; a baton still out runs the barrier.
			if self != nil {
				s.await(self)
			}
			return false
		}
		if !s.barrier() {
			if self == nil {
				return true
			}
			// Hand control to Run; teardown's wake unwinds self.
			s.done <- struct{}{}
			<-self.resume
			panic(abortUnwind{})
		}
		end = time.Time{} // the barrier is no lane's busy time
	}
}

// claim takes the next lane of the open window, or nil when none is
// left. In the relaxed regime the dispatch list is every lane and a
// lane qualifies only if its head is inside the window when the single
// baton gets to it: earlier lanes may have pushed into it directly.
func (s *Simulator) claim() *lane {
	for {
		i := int(s.next.Add(1) - 1)
		if i >= len(s.dispatch) {
			return nil
		}
		ln := s.dispatch[i]
		if !s.relaxed || ln.queue.len() > 0 && ln.queue.ev[0].t < s.horizon {
			return ln
		}
	}
}

// helper is one of the workers-1 parked goroutines that carry the extra
// batons of a window with more than one active lane. It exits when
// teardown closes s.helpers and reports that on s.unwound.
func (s *Simulator) helper() {
	for range s.helpers {
		if s.runBaton(nil, nil) {
			s.done <- struct{}{}
		}
	}
	s.unwound <- struct{}{}
}

// barrier closes the window every baton has retired from and opens the
// next. It runs on the stack of the baton that retired last, with every
// lane quiesced: it merges the staged cross-lane events, re-keys the
// lanes that ran or received events, checks for cancellation, and opens
// the next window. It reports false when the run is over.
func (s *Simulator) barrier() bool {
	s.windows++
	if s.relaxed {
		s.pending.rebuild(s.lanes)
	} else {
		for _, ln := range s.dispatch {
			s.pending.fix(ln)
		}
		s.mergeOutboxes()
	}
	if s.canceled.Load() {
		return false
	}
	return s.open()
}

// open runs the serial events due before the next window and opens it:
// horizon, dispatch list, claim cursor, and batons, waking a helper for
// each baton beyond the caller's own. It reports false when no event is
// left anywhere.
func (s *Simulator) open() bool {
	for {
		// Next window start: the minimum pending virtual time anywhere.
		T, st := maxTime, maxTime
		if len(s.pending.ln) > 0 {
			T = s.pending.ln[0].key
		}
		if s.queue.len() > 0 {
			st = s.queue.ev[0].t
		}
		if T == maxTime && st == maxTime {
			return false // drained
		}
		if st <= T {
			// Serial event: runs alone, with every lane quiesced and
			// advanced to the serial instant.
			ev := s.queue.pop()
			s.now = ev.t
			for _, ln := range s.lanes {
				if ln.now < ev.t {
					ln.now = ev.t
				}
			}
			s.cur = nil
			s.serialCtx = true
			ev.fn()
			s.serialCtx = false
			s.pending.rebuild(s.lanes)
			continue
		}
		H := T + Time(s.lookahead)
		if H < T {
			H = maxTime // overflow guard
		}
		if st < H {
			H = st
		}
		s.horizon = H
		batons := 1
		if s.relaxed {
			s.dispatch = s.lanes
		} else {
			s.dispatch = s.pending.below(0, H, s.dispatch[:0])
			slices.SortFunc(s.dispatch, func(a, b *lane) int { return a.id - b.id })
			batons = min(len(s.dispatch), s.workers)
		}
		s.next.Store(0)
		s.batons.Store(int32(batons))
		for i := 1; i < batons; i++ {
			s.helpers <- struct{}{}
		}
		return true
	}
}

const maxTime = Time(int64(^uint64(0) >> 1))

// runLanes is Run's body in lane mode. Run's goroutine opens the first
// window and carries its first baton; once that baton moves on, it waits
// for whichever goroutine runs the final barrier.
func (s *Simulator) runLanes() error {
	if s.workers > 1 {
		// A window hands out at most workers-1 helper batons, and every
		// one is received before the window's barrier can run, so the
		// opener's sends never block.
		s.helpers = make(chan struct{}, s.workers-1)
		for i := 1; i < s.workers; i++ {
			go s.helper()
		}
	}
	s.pending.rebuild(s.lanes)
	if s.open() && !s.runBaton(nil, nil) {
		<-s.done
	}
	if s.canceled.Load() {
		// A lane's poll canceled the run. All lanes are quiesced at the
		// barrier; capture the cancel instant before teardown.
		err := &CanceledError{Cause: s.cancelErr, At: s.maxLaneNow()}
		s.teardownLanes()
		return err
	}
	var err error
	if s.live > 0 {
		var parked []string
		for _, ln := range s.lanes {
			for p, reason := range ln.parked {
				if p.daemon {
					continue
				}
				parked = append(parked, p.name+": "+reason)
			}
		}
		sort.Strings(parked)
		err = &DeadlockError{Parked: parked}
	}
	s.teardownLanes()
	return err
}

// maxLaneNow is the maximum clock across lanes and the serial queue — the
// natural "current time" of a quiesced lane-mode simulation.
func (s *Simulator) maxLaneNow() Time {
	t := s.now
	for _, ln := range s.lanes {
		if ln.now > t {
			t = ln.now
		}
	}
	return t
}

// teardownLanes ends a lane-mode run: it marks the run finished, stops
// the helper goroutines and waits for them, and sequentially unwinds
// every process goroutine still blocked on its resume channel (parked
// processes and daemons alike), so a completed lane run leaks nothing.
// Every baton has retired when it is called, so the plain-field writes
// are ordered by the s.done receive and the per-proc resume sends that
// follow.
func (s *Simulator) teardownLanes() {
	s.finished = true
	s.aborting = true
	if s.helpers != nil {
		close(s.helpers)
		for i := 1; i < s.workers; i++ {
			<-s.unwound
		}
	}
	s.unwindAll()
}

// mergeOutboxes applies every cross-lane event the window's lanes staged
// in the canonical order: virtual time, then source lane id, then source
// insertion order. Destination sequence numbers are assigned in exactly
// this order, making the merged schedule independent of how the window's
// lanes interleaved on the host; each destination is re-keyed as its
// event lands.
func (s *Simulator) mergeOutboxes() {
	buf := s.mergeBuf[:0]
	for _, ln := range s.dispatch {
		if len(ln.outbox) > 0 {
			buf = append(buf, ln.outbox...)
			clear(ln.outbox)
			ln.outbox = ln.outbox[:0]
		}
	}
	if len(buf) == 0 {
		return
	}
	// Stable sort on t alone: entries were appended in (srcLane,
	// insertion-order) sequence, which stability preserves within ties.
	slices.SortStableFunc(buf, func(a, b xev) int { return cmp.Compare(a.t, b.t) })
	for i := range buf {
		x := &buf[i]
		dst := s.lanes[x.dst]
		dst.push(x.t, event{p: x.p, fn: x.fn})
		s.pending.fix(dst)
	}
	clear(buf)
	s.mergeBuf = buf[:0]
}
