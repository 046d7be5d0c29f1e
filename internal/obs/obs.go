// Package obs is the unified observability layer for the simulated
// cluster: structured trace events (with text, JSONL, and Chrome
// trace_event sinks) and a metrics registry with virtual-time latency
// histograms and per-parallel-region phase attribution. Events are
// counted in one place, internal/stats; the registry's per-node view is
// the run's stats.Registry rows, handed over after the run.
//
// # Zero overhead when disabled
//
// All recording methods are defined on *Recorder and begin with a nil
// receiver check, so the disabled path — the default — is a single
// predictable branch and zero allocations. Subsystems hold a plain
// *Recorder field (nil unless Config.Obs is set) and call methods on it
// unconditionally.
//
// # The single-threaded-kernel invariant
//
// The simulation kernel (internal/sim) runs exactly one goroutine at a
// time: the scheduler hands a baton through unbuffered channels, and a
// process only touches simulation state while it holds the baton. Every
// Recorder call is made from baton-holding context, so recording is
// plain field writes — no atomics, no locks, and one reusable scratch
// Event instead of a per-event allocation. This is the same invariant
// that lets the protocol engine share page tables across "nodes"; see
// the internal/sim package comment. Sinks are invoked synchronously in
// event order, which also makes trace output deterministic: two runs
// with the same Config.Seed produce byte-identical traces.
package obs

import "parade/internal/sim"

// Recorder is the write side of the observability layer. The zero value
// is not useful; create one with New. A nil *Recorder is valid and
// records nothing — that is the disabled path.
type Recorder struct {
	m     Metrics
	sinks []Sink

	// traceMessages enables per-message KindMsgSend events (off by
	// default: message volume dwarfs every other event class).
	traceMessages bool

	// ev is the pooled scratch record handed to sinks; legal because the
	// kernel never runs two recording contexts concurrently.
	ev Event
}

// New creates an enabled Recorder. The node count is not needed to size
// anything (the per-node counter rows are the run's stats.Registry,
// handed over after the run); the parameter stays because callers pass
// it.
func New(int) *Recorder { return &Recorder{} }

// Metrics returns the recorder's metrics registry (nil for a nil
// recorder).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return &r.m
}

// ShardForLanes switches the recorder to per-node metric shards for a
// lane-mode run (see Metrics). Trace sinks are incompatible with lanes:
// the scratch-event/synchronous-emit design leans on the global
// one-runnable-goroutine invariant, and deterministic traces are a
// legacy-mode artifact — lane runs keep the full metrics registry only.
func (r *Recorder) ShardForLanes(nodes int) {
	if r == nil {
		return
	}
	if len(r.sinks) > 0 {
		panic("obs: trace sinks are not supported with event lanes (use lanes=0 for tracing)")
	}
	r.m.shardForLanes(nodes)
}

// FoldLanes merges the per-node shards after a lane-mode run (no-op
// otherwise).
func (r *Recorder) FoldLanes() {
	if r != nil {
		r.m.FoldLanes()
	}
}

// RegionBeginOn marks node as entering parallel region seq: the node's
// subsequent activity is attributed to that region. Only meaningful in
// lane mode (legacy attribution follows the master's RegionBegin/End).
func (r *Recorder) RegionBeginOn(node, seq int) {
	if r != nil {
		r.m.regionOn(node, seq)
	}
}

// RegionEndOn reverts node to serial attribution.
func (r *Recorder) RegionEndOn(node int) {
	if r != nil {
		r.m.regionOff(node)
	}
}

// AddSink attaches a trace sink. No-op on a nil recorder.
func (r *Recorder) AddSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	if r.m.histSh != nil {
		panic("obs: trace sinks are not supported with event lanes (use lanes=0 for tracing)")
	}
	r.sinks = append(r.sinks, s)
}

// TraceMessages toggles per-message send events.
func (r *Recorder) TraceMessages(on bool) {
	if r != nil {
		r.traceMessages = on
	}
}

// Close closes every attached sink (flushing, e.g., the Chrome JSON
// tail) and returns the first error.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	var first error
	for _, s := range r.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *Recorder) emit() {
	for _, s := range r.sinks {
		s.Emit(&r.ev)
	}
}

// --- hlrc: faults and page movement ---

// FetchStart traces the start of a remote page fetch. write says
// whether the triggering fault was a write fault.
func (r *Recorder) FetchStart(now sim.Time, node, page, home int, write bool) {
	if r == nil || len(r.sinks) == 0 {
		return
	}
	w := 0
	if write {
		w = 1
	}
	r.ev = Event{Kind: KindFetchStart, Time: now, Node: node, Page: page, Arg: home, Arg2: w}
	r.emit()
}

// FetchDone records a completed demand fetch (a fault's wait for its
// page): latency histogram, phase attribution, and a span event.
func (r *Recorder) FetchDone(start, end sim.Time, node, page, home int) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.h(node, HistPageFetch).Observe(d)
	p := r.m.ph(node)
	p.Fetches++
	p.FetchWaitNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindFetch, Time: end, Dur: sim.Duration(d), Node: node, Page: page, Arg: home}
		r.emit()
	}
}

// Invalidated attributes one page invalidation applied on node to the
// current phase.
func (r *Recorder) Invalidated(node, page int) {
	if r == nil {
		return
	}
	r.m.ph(node).Invalidations++
}

// --- hlrc: diff flush ---

// DiffCreated records one diff made during a flush (wire bytes include
// the diff header).
func (r *Recorder) DiffCreated(node, bytes int) {
	if r == nil {
		return
	}
	r.m.h(node, HistDiffBytes).Observe(int64(bytes))
	p := r.m.ph(node)
	p.DiffsCreated++
	p.DiffBytes += int64(bytes)
}

// FlushStart traces the start of a diff flush (after the scan, before
// the bundles are sent).
func (r *Recorder) FlushStart(now sim.Time, node, pages, bundles int) {
	if r == nil || len(r.sinks) == 0 {
		return
	}
	r.ev = Event{Kind: KindFlushStart, Time: now, Node: node, Page: -1, Arg: pages, Arg2: bundles}
	r.emit()
}

// FlushDone records a completed diff flush (scan through last home ack).
func (r *Recorder) FlushDone(start, end sim.Time, node, pages, bundles int) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.h(node, HistDiffFlush).Observe(d)
	p := r.m.ph(node)
	p.Flushes++
	p.FlushWaitNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindFlush, Time: end, Dur: sim.Duration(d), Node: node, Page: -1, Arg: pages, Arg2: bundles}
		r.emit()
	}
}

// --- hlrc: barriers, home migration ---

// HomeMigrate traces a barrier-time home migration decided by the
// master.
func (r *Recorder) HomeMigrate(now sim.Time, epoch, page, from, to int) {
	if r == nil || len(r.sinks) == 0 {
		return
	}
	r.ev = Event{Kind: KindHomeMigrate, Time: now, Node: from, Page: page, Arg: epoch, Arg2: from, Arg3: to}
	r.emit()
}

// BarrierComplete traces the master finishing barrier `epoch` with
// `modified` distinct modified pages.
func (r *Recorder) BarrierComplete(now sim.Time, epoch, modified int) {
	if r == nil || len(r.sinks) == 0 {
		return
	}
	r.ev = Event{Kind: KindBarrierDone, Time: now, Node: 0, Page: -1, Arg: epoch, Arg2: modified}
	r.emit()
}

// BarrierWait records one node's pass through the SDSM barrier (entry
// before the flush to departure).
func (r *Recorder) BarrierWait(start, end sim.Time, node int) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.h(node, HistBarrierWait).Observe(d)
	p := r.m.ph(node)
	p.Barriers++
	p.BarrierWaitNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindBarrier, Time: end, Dur: sim.Duration(d), Node: node, Page: -1}
		r.emit()
	}
}

// --- hlrc: locks ---

// LockAcquired records a completed SDSM lock acquisition on node.
func (r *Recorder) LockAcquired(start, end sim.Time, node, lock int) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.h(node, HistLockAcquire).Observe(d)
	p := r.m.ph(node)
	p.Locks++
	p.LockWaitNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindLock, Time: end, Dur: sim.Duration(d), Node: node, Page: -1, Arg: lock}
		r.emit()
	}
}

// LockReleased traces an SDSM lock release (after the release-time
// flush).
func (r *Recorder) LockReleased(now sim.Time, node, lock int) {
	if r == nil || len(r.sinks) == 0 {
		return
	}
	r.ev = Event{Kind: KindLockRelease, Time: now, Node: node, Page: -1, Arg: lock}
	r.emit()
}

// --- netsim ---

// MsgSent attributes one message entering the fabric from node `from`
// to the current phase (first transmissions only: a retransmitted frame
// is wire traffic, not a new message).
func (r *Recorder) MsgSent(now sim.Time, from, to, bytes int, kind int) {
	if r == nil {
		return
	}
	p := r.m.ph(from)
	p.Msgs++
	p.Bytes += int64(bytes)
	if r.traceMessages && len(r.sinks) > 0 {
		r.ev = Event{Kind: KindMsgSend, Time: now, Node: from, Page: -1, Arg: to, Arg2: bytes, Arg3: kind}
		r.emit()
	}
}

// --- netsim: reliability sublayer (active under fault injection) ---

// RetrySettled records the first-send-to-ack latency of a frame from
// node that needed at least one retransmission.
func (r *Recorder) RetrySettled(firstSent, acked sim.Time, node int) {
	if r == nil {
		return
	}
	r.m.h(node, HistRetryLatency).Observe(int64(acked - firstSent))
}

// --- netsim + hlrc: crash faults and recovery ---

// RecoveryDone records one completed recovery execution: detection
// instant through the last repair action, attributed to the master.
func (r *Recorder) RecoveryDone(start, end sim.Time, node int) {
	if r == nil {
		return
	}
	r.m.h(node, HistRecoveryLatency).Observe(int64(end - start))
}

// --- hlrc: protocol policy engine ---

// PolicyReclass records the virtual time between a page's previous
// class change and the one just applied at node (the master): the
// reclass_latency histogram. A page's first change has no interval and
// is not recorded.
func (r *Recorder) PolicyReclass(node int, sinceNs int64) {
	if r == nil {
		return
	}
	r.m.h(node, HistReclassLatency).Observe(sinceNs)
}

// --- mpi ---

// Collective records one rank's pass through an MPI collective.
func (r *Recorder) Collective(start, end sim.Time, node int, op string, bytes int) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.h(node, HistCollective).Observe(d)
	p := r.m.ph(node)
	p.Collectives++
	p.CollectiveNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindCollective, Time: end, Dur: sim.Duration(d), Node: node, Page: -1, Arg: bytes, Cat: op}
		r.emit()
	}
}

// --- core: regions and directives ---

// RegionBegin opens parallel region `seq`: subsequent activity is
// attributed to it.
func (r *Recorder) RegionBegin(now sim.Time, seq int) {
	if r == nil {
		return
	}
	r.m.beginPhase(now, seq)
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindRegionBegin, Time: now, Node: 0, Page: -1, Arg: seq}
		r.emit()
	}
}

// RegionEnd closes parallel region `seq`; activity reverts to the
// serial accumulator.
func (r *Recorder) RegionEnd(start, end sim.Time, seq int) {
	if r == nil {
		return
	}
	r.m.endPhase(end)
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindRegionEnd, Time: end, Dur: sim.Duration(end - start), Node: 0, Page: -1, Arg: seq}
		r.emit()
	}
}

// Directive records one thread's execution of a synchronization
// directive (cat is the directive kind, e.g. "critical"; site is the
// user-supplied name).
func (r *Recorder) Directive(start, end sim.Time, node int, cat, site string) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.h(node, HistDirective).Observe(d)
	p := r.m.ph(node)
	p.Directives++
	p.DirectiveNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindDirective, Time: end, Dur: sim.Duration(d), Node: node, Page: -1, Cat: cat, Label: site}
		r.emit()
	}
}

// --- core: tasking runtime ---

// TaskReleased records a held task's release on its origin node once
// its last predecessor completed; start is the spawn instant, so the
// span is the task's dependence wait (the dep_wait_latency histogram).
func (r *Recorder) TaskReleased(start, end sim.Time, node int) {
	if r == nil {
		return
	}
	r.m.h(node, HistDepWait).Observe(int64(end - start))
}

// StealDone records one completed steal round trip (request sent to
// reply received); hit says whether a task came back.
func (r *Recorder) StealDone(start, end sim.Time, thief, victim int, hit bool) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.h(thief, HistStealLatency).Observe(d)
	if len(r.sinks) > 0 {
		h := 0
		if hit {
			h = 1
		}
		r.ev = Event{Kind: KindSteal, Time: end, Dur: sim.Duration(d), Node: thief, Page: -1, Arg: victim, Arg2: h}
		r.emit()
	}
}

// --- sim ---

// CPUWait records time a runnable process spent queued for a busy CPU
// on node.
func (r *Recorder) CPUWait(node int, d sim.Duration) {
	if r == nil {
		return
	}
	r.m.h(node, HistCPUWait).Observe(int64(d))
	r.m.ph(node).CPUWaitNs += int64(d)
}
