// Package obs is the unified observability layer for the simulated
// cluster: structured trace events (with text, JSONL, and Chrome
// trace_event sinks) and a metrics registry with per-node counters,
// virtual-time latency histograms, and per-parallel-region phase
// attribution.
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

// New creates an enabled Recorder with per-node counter slots for
// `nodes` nodes (the slots grow on demand if a larger node id appears).
func New(nodes int) *Recorder {
	if nodes < 0 {
		nodes = 0
	}
	return &Recorder{m: Metrics{perNode: make([]NodeCounters, nodes)}}
}

// Enabled reports whether r records anything (i.e. is non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

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

// ReadFault counts a read access fault on node.
func (r *Recorder) ReadFault(node int) {
	if r == nil {
		return
	}
	r.m.node(node).ReadFaults++
}

// WriteFault counts a write access fault on node.
func (r *Recorder) WriteFault(node int) {
	if r == nil {
		return
	}
	r.m.node(node).WriteFaults++
}

// TwinCreated counts a twin creation on node.
func (r *Recorder) TwinCreated(node int) {
	if r == nil {
		return
	}
	r.m.node(node).Twins++
}

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

// FetchDone records a completed page fetch: counter, latency histogram,
// phase attribution, and a span event.
func (r *Recorder) FetchDone(start, end sim.Time, node, page, home int) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.node(node).FetchesIssued++
	r.m.h(node, HistPageFetch).Observe(d)
	p := r.m.ph(node)
	p.Fetches++
	p.FetchWaitNs += d
	t := r.m.tot(node)
	t.Fetches++
	t.FetchWaitNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindFetch, Time: end, Dur: sim.Duration(d), Node: node, Page: page, Arg: home}
		r.emit()
	}
}

// FetchServed counts a page request served by its home node.
func (r *Recorder) FetchServed(home, page int) {
	if r == nil {
		return
	}
	r.m.node(home).FetchesServed++
}

// Invalidated counts one page invalidation applied on node.
func (r *Recorder) Invalidated(node, page int) {
	if r == nil {
		return
	}
	r.m.node(node).Invalidations++
	p := r.m.ph(node)
	p.Invalidations++
	r.m.tot(node).Invalidations++
}

// --- hlrc: diff flush ---

// DiffCreated records one diff made during a flush (wire bytes include
// the diff header).
func (r *Recorder) DiffCreated(node, bytes int) {
	if r == nil {
		return
	}
	nc := r.m.node(node)
	nc.DiffsCreated++
	nc.DiffBytes += int64(bytes)
	r.m.h(node, HistDiffBytes).Observe(int64(bytes))
	p := r.m.ph(node)
	p.DiffsCreated++
	p.DiffBytes += int64(bytes)
	t := r.m.tot(node)
	t.DiffsCreated++
	t.DiffBytes += int64(bytes)
}

// DiffApplied counts one diff applied at its home node.
func (r *Recorder) DiffApplied(home int) {
	if r == nil {
		return
	}
	r.m.node(home).DiffsApplied++
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
	t := r.m.tot(node)
	t.Flushes++
	t.FlushWaitNs += d
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
	r.m.node(node).Barriers++
	r.m.h(node, HistBarrierWait).Observe(d)
	p := r.m.ph(node)
	p.Barriers++
	p.BarrierWaitNs += d
	t := r.m.tot(node)
	t.Barriers++
	t.BarrierWaitNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindBarrier, Time: end, Dur: sim.Duration(d), Node: node, Page: -1}
		r.emit()
	}
}

// --- hlrc: locks ---

// LockRequest counts a lock request issued by a node (including cached
// re-acquires that never reach the manager).
func (r *Recorder) LockRequest(from int) {
	if r == nil {
		return
	}
	r.m.node(from).LockRequests++
}

// LockWaited counts a lock request that could not be granted
// immediately and queued at the manager.
func (r *Recorder) LockWaited(from int) {
	if r == nil {
		return
	}
	r.m.node(from).LockWaits++
}

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
	t := r.m.tot(node)
	t.Locks++
	t.LockWaitNs += d
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

// MsgSent records one message entering the fabric from node `from`.
func (r *Recorder) MsgSent(now sim.Time, from, to, bytes int, kind int) {
	if r == nil {
		return
	}
	nc := r.m.node(from)
	nc.MsgsSent++
	nc.BytesSent += int64(bytes)
	p := r.m.ph(from)
	p.Msgs++
	p.Bytes += int64(bytes)
	t := r.m.tot(from)
	t.Msgs++
	t.Bytes += int64(bytes)
	if r.traceMessages && len(r.sinks) > 0 {
		r.ev = Event{Kind: KindMsgSend, Time: now, Node: from, Page: -1, Arg: to, Arg2: bytes, Arg3: kind}
		r.emit()
	}
}

// LocalDelivered counts an intra-node delivery that bypassed the fabric.
func (r *Recorder) LocalDelivered(node int) {
	if r == nil {
		return
	}
	r.m.node(node).LocalDeliver++
}

// --- netsim: reliability sublayer (active under fault injection) ---

// Timeout counts a retransmit timer firing on node's still-unacked frame.
func (r *Recorder) Timeout(node int) {
	if r == nil {
		return
	}
	r.m.node(node).Timeouts++
}

// Retransmit counts a data frame node re-injected after a timeout.
func (r *Recorder) Retransmit(node int) {
	if r == nil {
		return
	}
	r.m.node(node).Retransmits++
}

// DupSuppressed counts an arrival node discarded as a duplicate.
func (r *Recorder) DupSuppressed(node int) {
	if r == nil {
		return
	}
	r.m.node(node).DupsSuppressed++
}

// AckSent counts a cumulative ack node put on the control channel.
func (r *Recorder) AckSent(node int) {
	if r == nil {
		return
	}
	r.m.node(node).AcksSent++
}

// RetrySettled records the first-send-to-ack latency of a frame from
// node that needed at least one retransmission.
func (r *Recorder) RetrySettled(firstSent, acked sim.Time, node int) {
	if r == nil {
		return
	}
	r.m.h(node, HistRetryLatency).Observe(int64(acked - firstSent))
}

// --- netsim + hlrc: crash faults and recovery ---

// CrashInjected counts a crash-stop event on node.
func (r *Recorder) CrashInjected(node int) {
	if r == nil {
		return
	}
	r.m.node(node).Crashes++
}

// NodeRestarted counts a crashed node coming back.
func (r *Recorder) NodeRestarted(node int) {
	if r == nil {
		return
	}
	r.m.node(node).Restarts++
}

// PeerDown counts a retry-budget exhaustion observed by node.
func (r *Recorder) PeerDown(node int) {
	if r == nil {
		return
	}
	r.m.node(node).PeerDowns++
}

// CkptShipped records one checkpoint message node sent to its buddy.
func (r *Recorder) CkptShipped(node, bytes int) {
	if r == nil {
		return
	}
	nc := r.m.node(node)
	nc.CkptMsgs++
	nc.CkptBytes += int64(bytes)
}

// RecoveryDone records one completed recovery execution: detection
// instant through the last repair action, attributed to the master.
func (r *Recorder) RecoveryDone(start, end sim.Time, node int) {
	if r == nil {
		return
	}
	r.m.node(node).Recovered++
	r.m.h(node, HistRecoveryLatency).Observe(int64(end - start))
}

// --- hlrc: protocol policy engine ---

// PolicyRefresh counts one eager page refresh (update propagation)
// issued by node after a barrier departure.
func (r *Recorder) PolicyRefresh(node int) {
	if r == nil {
		return
	}
	r.m.node(node).PolicyRefreshes++
}

// PolicyReclass records one applied classifier class change at node
// (the master). sinceNs is the virtual time since the page's previous
// change and feeds the reclass_latency histogram; pass a negative value
// for a page's first change (no previous change to measure from).
func (r *Recorder) PolicyReclass(node int, sinceNs int64) {
	if r == nil {
		return
	}
	r.m.node(node).PolicyReclass++
	if sinceNs >= 0 {
		r.m.h(node, HistReclassLatency).Observe(sinceNs)
	}
}

// --- mpi ---

// Collective records one rank's pass through an MPI collective.
func (r *Recorder) Collective(start, end sim.Time, node int, op string, bytes int) {
	if r == nil {
		return
	}
	d := int64(end - start)
	r.m.node(node).Collectives++
	r.m.h(node, HistCollective).Observe(d)
	p := r.m.ph(node)
	p.Collectives++
	p.CollectiveNs += d
	t := r.m.tot(node)
	t.Collectives++
	t.CollectiveNs += d
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
	r.m.node(node).Directives++
	r.m.h(node, HistDirective).Observe(d)
	p := r.m.ph(node)
	p.Directives++
	p.DirectiveNs += d
	t := r.m.tot(node)
	t.Directives++
	t.DirectiveNs += d
	if len(r.sinks) > 0 {
		r.ev = Event{Kind: KindDirective, Time: end, Dur: sim.Duration(d), Node: node, Page: -1, Cat: cat, Label: site}
		r.emit()
	}
}

// --- core: tasking runtime ---

// TaskSpawned counts a task pushed onto node's deque.
func (r *Recorder) TaskSpawned(node int) {
	if r == nil {
		return
	}
	r.m.node(node).TasksSpawned++
}

// TaskExecuted counts a task run to completion by a thread of node.
func (r *Recorder) TaskExecuted(node int) {
	if r == nil {
		return
	}
	r.m.node(node).TasksExecuted++
}

// DepResolved counts one predecessor edge retired by node's dependence
// resolver (a completed task satisfying one successor's dependence).
func (r *Recorder) DepResolved(node int) {
	if r == nil {
		return
	}
	r.m.node(node).DepsResolved++
}

// TaskReleased records a held task's release on its origin node once
// its last predecessor completed; start is the spawn instant, so the
// span is the task's dependence wait (the dep_wait_latency histogram).
func (r *Recorder) TaskReleased(start, end sim.Time, node int) {
	if r == nil {
		return
	}
	r.m.node(node).TasksReleased++
	r.m.h(node, HistDepWait).Observe(int64(end - start))
}

// StealRequest counts a steal round trip initiated by thief.
func (r *Recorder) StealRequest(thief int) {
	if r == nil {
		return
	}
	r.m.node(thief).StealRequests++
}

// StealDone records one completed steal round trip (request sent to
// reply received); hit says whether a task came back. Hits also count
// toward the thief's stolen-task tally.
func (r *Recorder) StealDone(start, end sim.Time, thief, victim int, hit bool) {
	if r == nil {
		return
	}
	d := int64(end - start)
	if hit {
		r.m.node(thief).TasksStolen++
	}
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
	r.m.node(node).CPUWaitNs += int64(d)
	r.m.h(node, HistCPUWait).Observe(int64(d))
	p := r.m.ph(node)
	p.CPUWaitNs += int64(d)
	r.m.tot(node).CPUWaitNs += int64(d)
}
