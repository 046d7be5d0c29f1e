// Package hlrc implements the ParADE memory consistency protocol
// (paper §5.2): home-based lazy release consistency with migratory home.
// Pages are fetched from their home on access faults, local writes are
// captured with twins and propagated as diffs, write notices travel
// piggybacked on barrier messages, and the home of a page migrates at
// barrier time to its single modifier. A centralized lock manager
// provides the conventional SDSM synchronization path that the baseline
// (KDSM-style) configuration uses for critical/single directives.
//
// The engine's methods run in two kinds of simulated-process context:
// application threads call Load/Store/EnsureRead/EnsureWrite/Barrier/
// AcquireLock/ReleaseLock, and each node's communication thread calls Handle for
// every incoming protocol message. The simulation kernel runs one
// process at a time, so the engine needs no host-level locking — the
// same invariant lets the optional internal/obs recorder (SetRecorder)
// log events and histograms with plain, unsynchronized field writes.
package hlrc

import (
	"fmt"
	"strings"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/obs"
	"parade/internal/sim"
	"parade/internal/stats"
)

// CPU costs of protocol operations, calibrated to a Pentium-III/Linux-2.4
// node like the paper's testbed.
const (
	CostFaultHandler   = 10 * sim.Microsecond // SIGSEGV delivery + handler entry
	CostPageCopy       = 6 * sim.Microsecond  // copy one 4 KiB page
	CostTwinCreate     = 6 * sim.Microsecond  // allocate + copy a twin
	CostDiffScan       = 15 * sim.Microsecond // compare page against twin
	CostDiffApply      = 3 * sim.Microsecond  // apply one diff at the home
	CostProtocolHandle = 2 * sim.Microsecond  // per-message protocol bookkeeping
	CostLockManage     = 1 * sim.Microsecond  // lock manager queue operation
)

// Config selects the protocol variant.
type Config struct {
	Nodes         int
	ShmBytes      int
	HomeMigration bool               // paper's migratory-home extension
	LockCaching   bool               // lazy-release lock tokens (Yun et al.)
	Strategy      dsm.UpdateStrategy // atomic page update method
	Crash         *CrashPlan         // crash-stop fault plan (nil/empty: inert)
	// Policy selects the protocol policy (policy.go): "" (legacy),
	// "invalidate", "update", or "adaptive".
	Policy string
}

// Protocol message subtypes carried in netsim.Message.Type.
const (
	msgPageReq = iota + 1
	msgPageReply
	msgDiff
	msgDiffAck
	msgBarrierArrive
	msgBarrierDepart
	msgLockReq
	msgLockGrant
	msgLockRelease
	msgLockRevoke
	msgLockToken
	// Crash recovery plane (recovery.go). Active only with a crash plan.
	msgPing         // master liveness probe during a stalled barrier
	msgCkptFlush    // flush-time checkpoint log to the buddy
	msgCkptAck      // buddy durability ack for a barrier log
	msgCkptPage     // incremental home-page mirror update to the buddy
	msgCkptTok      // lock-token replica delta to the buddy
	msgRecoverState // buddy -> restarted node: full state restore
)

// pageReq asks the home for the current contents of a page.
type pageReq struct{ Page int }

// pageReply carries a snapshot of the page from its home.
type pageReply struct {
	Page int
	Data []byte // nil when the home never materialized the frame (zeroes)
}

// diffMsg bundles the diffs one node flushes to one home. The diffs are
// pooled and stay the flusher's: the home only applies them, and the
// flusher returns them (and the bundle slice) to the engine's DiffPool once
// all acks are in — the ack hands ownership back.
type diffMsg struct{ Diffs []*dsm.Diff }

// barrierArrive is a node's arrival at the global barrier, carrying its
// write notices (paper §5.2.2: combined into a single message and
// piggybacked on the barrier arrival).
type barrierArrive struct {
	Epoch   int
	Notices []dsm.WriteNotice
	// Reads is the sorted set of pages this node read-faulted or eagerly
	// refreshed during the interval — classifier input, piggybacked only
	// when the policy observes reads (nil otherwise, adding no bytes).
	Reads []int
}

// departEntry summarizes one modified page for the barrier departure:
// who modified it and where its home now lives.
type departEntry struct {
	Page      int
	NewHome   int
	Modifiers []int
	// Push selects update propagation for this page: nodes whose copy
	// the departure invalidates re-fetch it eagerly (refreshPages)
	// instead of waiting for the next access fault.
	Push bool
}

// barrierDepart releases a node from the barrier and delivers the global
// write-notice summary.
type barrierDepart struct {
	Epoch   int
	Entries []departEntry
}

// lockMsg is used by requests, grants, and releases. Notices carry the
// consistency information piggybacked on grants (pages to invalidate)
// and releases (pages dirtied in the critical section).
type lockMsg struct {
	Lock    int
	Notices []dsm.WriteNotice
}

// nodeState is the per-node protocol state.
type nodeState struct {
	table *dsm.Table
	mem   *dsm.Memory
	dirty map[int]struct{} // pages written since the last flush

	fetch map[int]*sim.Gate // in-flight page fetches

	flushGate    *sim.Gate // waiting for diff acks
	flushPending int

	// Lock releases can flush from any team thread, so two threads of
	// one node can reach flush concurrently (the diff-scan cost yields
	// the CPU). Flushes serialize on flushing/flushIdle: the waiter
	// re-flushes whatever stayed dirty once the active flush's acks are
	// in, which preserves release semantics (its writes are home either
	// way before its release proceeds).
	flushing  bool
	flushIdle *sim.Gate

	// relNotices accumulates every page this node flushed since its
	// last barrier. A release's write notices are drawn from here, not
	// from the flush it triggered: with several team threads, a
	// concurrent release's flush can sweep up this thread's writes, and
	// attributing them only to that other lock would let a later
	// acquirer of THIS lock miss the invalidation. Re-notifying is
	// conservative (the manager's per-lock notice map is cumulative
	// anyway); the barrier clears it because barrier departure
	// propagates the interval's notices cluster-wide itself.
	relNotices map[int]struct{}

	// Flush scratch, reused across flushes so the steady-state flush
	// path allocates only its notice slice (which escapes into protocol
	// messages). flushBundle's slices are recycled after the acks.
	flushPages  []int
	flushHomes  []int
	flushBundle map[int][]*dsm.Diff

	lockCache map[int]*nodeLock // cached-protocol token state

	// readObs is the set of pages this node read-faulted or eagerly
	// refreshed since its last barrier — the classifier's reader-set
	// input, collected only when the policy observes reads and drained
	// (sorted) onto the next barrier arrival.
	readObs map[int]struct{}
	// refreshPending queues pages a barrier departure invalidated with
	// Push set; refreshPages re-fetches them all in parallel right after
	// the barrier gate opens.
	refreshPending []int

	barrierGate *sim.Gate // waiting for barrier departure

	lockGate map[int]*sim.Gate // waiting for a lock grant

	// Crash-recovery bookkeeping, maintained only with an active plan.
	flushAwait  map[int]bool // homes with an outstanding diff ack
	flushSelf   []int        // dirty home pages of the current flush
	ckptGate    *sim.Gate    // waiting for the buddy's barrier-log ack
	ckptPending *ckptFlush   // unacked barrier log, kept for resend
}

// lockState is the manager-side state of one global lock.
type lockState struct {
	held    bool
	holder  int
	queue   []int
	notices map[int]int // page -> last modifier, sent with grants
}

// masterBarrier is the master node's view of the in-progress barrier.
type masterBarrier struct {
	epoch     int
	arrived   int
	modifiers map[int]map[int]bool // page -> set of modifier nodes
}

// Engine drives the protocol for all nodes of one simulated cluster.
type Engine struct {
	sim      *sim.Simulator
	net      *netsim.Network
	cpus     []*sim.CPU
	cfg      Config
	counters *stats.Registry // the network's registry (one per run)

	Alloc *dsm.Allocator

	// frames recycles twins and fetch-reply page snapshots; diffs
	// recycles flush diffs. One free list each for the whole cluster (the
	// one event kernel runs one process at a time): a fetch-reply frame
	// taken at the home is released at the requester, so per-node lists
	// would starve every node that mostly serves pages.
	frames dsm.FramePool
	diffs  dsm.DiffPool

	nodes []*nodeState
	// locks holds the manager-side lock state, sharded by manager node
	// (lockManager(id)), so each shard map belongs to one node.
	locks  []map[int]*lockState
	master masterBarrier
	epoch  int

	// pgStats is the per-page activity behind PageReport, one lazily
	// chunked table per node: each is touched only from its own node's
	// context — fetches counted where they are served,
	// invalidations where they are applied, migrations at the master —
	// and PageReport sums them.
	pgStats []dsm.Chunked[pageActivity]

	// rec is the optional observability recorder (nil = disabled, the
	// zero-overhead path).
	rec *obs.Recorder

	// recov is the crash/recovery plane (nil without an active crash
	// plan — the nil check keeps every hot path identical to a build
	// without it).
	recov *recovery

	// cls is the per-page classifier of the adaptive policy (policy.go);
	// nil under the fixed policies. Its presence also gates read-set
	// observation (fault.go, barrier.go): fixed policies need no reader
	// information, so they add no bytes to any protocol message.
	cls *classifier
}

// New creates a protocol engine for the given cluster. It counts into
// net's registry; c must be the counters net was built with (the
// registry's fold destination).
func New(s *sim.Simulator, net *netsim.Network, cpus []*sim.CPU, cfg Config, c *stats.Counters) *Engine {
	if c != net.Counters().Total() {
		panic("hlrc: New needs the *stats.Counters its network was built with")
	}
	npages := (cfg.ShmBytes + dsm.PageSize - 1) / dsm.PageSize
	e := &Engine{
		sim: s, net: net, cpus: cpus, cfg: cfg, counters: net.Counters(),
		Alloc:   dsm.NewAllocator(npages * dsm.PageSize),
		locks:   make([]map[int]*lockState, cfg.Nodes),
		pgStats: make([]dsm.Chunked[pageActivity], cfg.Nodes),
	}
	// Unknown policy names panic: core.Config.Validate rejects them
	// before an engine is ever constructed.
	if !ValidPolicy(cfg.Policy) {
		panic(fmt.Sprintf("hlrc: unknown protocol policy %q (valid: %s)", cfg.Policy, strings.Join(PolicyNames()[1:], ", ")))
	}
	if cfg.Policy == PolicyAdaptive {
		e.cls = newClassifier(npages)
	}
	for i := range e.locks {
		e.locks[i] = map[int]*lockState{}
		e.pgStats[i] = dsm.NewChunked(npages, pageActivity{})
	}
	e.nodes = make([]*nodeState, cfg.Nodes)
	for i := range e.nodes {
		e.nodes[i] = &nodeState{
			table:       dsm.NewTable(i, npages),
			mem:         dsm.NewMemory(npages, cfg.Strategy),
			dirty:       map[int]struct{}{},
			fetch:       map[int]*sim.Gate{},
			lockGate:    map[int]*sim.Gate{},
			lockCache:   map[int]*nodeLock{},
			flushBundle: map[int][]*dsm.Diff{},
			relNotices:  map[int]struct{}{},
			readObs:     map[int]struct{}{},
		}
		// Master starts with every page readable (paper §5.2.3).
		if i == 0 {
			e.nodes[i].mem.FillPerm(dsm.PermRead)
		}
	}
	e.master.modifiers = map[int]map[int]bool{}
	if cfg.Crash.Active() {
		e.armRecovery(s, net)
	}
	return e
}

// cnt returns node's counter row.
func (e *Engine) cnt(node int) *stats.Counters { return e.counters.At(node) }

// bumpInval counts one invalidation of pg applied on node.
func (e *Engine) bumpInval(node, pg int) { e.pgStats[node].At(pg).inval++ }

// Mem returns node's memory image, for typed accessors after EnsureRead/
// EnsureWrite have granted access. The application arrays go through
// Load/Store instead; Mem's remaining callers are core's Scalar on the
// SDSM path and the SDSM lowering of single (its round flag), both on
// the lock path where every acquire invalidates the page anyway, and
// tests that inspect a node's memory.
func (e *Engine) Mem(node int) *dsm.Memory { return e.nodes[node].mem }

// Table exposes node's page table (used by tests and the stats report).
func (e *Engine) Table(node int) *dsm.Table { return e.nodes[node].table }

// send injects a protocol control message from p's context.
func (e *Engine) send(p *sim.Proc, from, to, typ int, bytes int, payload any) {
	e.net.Send(p, &netsim.Message{
		From: from, To: to, Kind: netsim.KindDSM, Type: typ,
		Bytes: bytes, Payload: payload,
	})
}

// Handle dispatches one incoming protocol message on node's
// communication thread (process p).
func (e *Engine) Handle(p *sim.Proc, node int, m *netsim.Message) {
	e.cpus[node].Compute(p, CostProtocolHandle)
	switch m.Type {
	case msgPageReq:
		e.handlePageReq(p, node, m)
	case msgPageReply:
		e.handlePageReply(p, node, m)
	case msgDiff:
		e.handleDiff(p, node, m)
	case msgDiffAck:
		e.handleDiffAck(p, node, m)
	case msgBarrierArrive:
		e.handleBarrierArrive(p, node, m)
	case msgBarrierDepart:
		e.handleBarrierDepart(p, node, m)
	case msgLockReq:
		e.handleLockReq(p, node, m)
	case msgLockGrant:
		e.handleLockGrant(p, node, m)
	case msgLockRelease:
		e.handleLockRelease(p, node, m)
	case msgLockRevoke:
		e.handleLockRevoke(p, node, m)
	case msgLockToken:
		e.handleLockToken(p, node, m)
	case msgPing:
		// Liveness probe: reaching the inbox is the whole answer.
	case msgCkptFlush:
		e.handleCkptFlush(p, node, m)
	case msgCkptAck:
		e.handleCkptAck(p, node, m)
	case msgCkptPage:
		e.handleCkptPage(m)
	case msgCkptTok:
		e.handleCkptTok(m)
	case msgRecoverState:
		e.handleRecoverState(p, node, m)
	default:
		panic(fmt.Sprintf("hlrc: unknown message type %d", m.Type))
	}
}
