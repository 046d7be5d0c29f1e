// Crash-stop node failures and the recovery protocol above the reliable
// fabric. Three mechanisms cooperate:
//
//  1. Barrier-aligned checkpointing. Every node (except the master,
//     which this model treats as immortal — it is the barrier
//     coordinator and lock manager) replicates its recovery state to a
//     deterministic buddy, node (id+1) mod N: incremental copies of its
//     home pages as they change (piggybacked on diff application and
//     home migration), its lock-token state as it changes, and at every
//     flush a checkpoint log. The barrier-time log is a full snapshot —
//     page-table states and homes, the interval's write notices, and
//     copies of the home pages the node itself dirtied — and is
//     acknowledged by the buddy before the node sends its barrier
//     arrival, so a node that crashed AT barrier k provably has a
//     durable, bit-exact image of its barrier-k state.
//
//  2. Detection. A crash plan arms the reliability sublayer with a
//     tight retry budget; peers whose frames to a dead node exhaust
//     that budget surface a peer-down signal. For barriers with no
//     traffic toward the dead node, the master arms a probe timer when
//     a barrier stalls and pings the missing members; the ping itself
//     then exhausts its retries against a crashed peer. Both paths feed
//     the same recovery daemon.
//
//  3. Recovery. Every crash is a restart: the membership is fixed for
//     the whole run. The daemon waits out the outage, restores the node
//     from its buddy's snapshot (page table, home frames, replica
//     contents, lock tokens), synthesizes the barrier arrival the crash
//     suppressed, and re-drives every stuck conversation (unacked diff
//     bundles, stalled fetches, pending revokes, the protected peer's
//     own checkpoint log). Because the crash point is the quiescent
//     instant after the flush and before the arrival, the recovered
//     execution is bit-identical to a fault-free one: same memory image,
//     same protocol decisions, only the virtual clock differs.
package hlrc

import (
	"fmt"
	"sort"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// CrashEvent schedules one crash-stop failure on the virtual clock: the
// node's Barrier-th call to Engine.Barrier (1-based) crashes it after
// its flush and checkpoint log are durable but before its barrier
// arrival is sent.
type CrashEvent struct {
	Node    int // node to crash; never the master (node 0)
	Barrier int // 1-based count of the node's own Engine.Barrier calls
}

// CrashPlan is the deterministic crash schedule of one run. A nil or
// empty plan arms nothing: the engine byte-for-byte matches a build
// without the recovery plane.
type CrashPlan struct {
	Events []CrashEvent
}

const (
	detectTimeout = 500 * sim.Microsecond // master's stalled-barrier probe period
	restartDelay  = sim.Millisecond       // outage length before a restart
)

// Active reports whether the plan schedules any crash.
func (cp *CrashPlan) Active() bool { return cp != nil && len(cp.Events) > 0 }

// Validate checks the plan against the protocol's restrictions: the
// master cannot crash (it is the barrier coordinator and, under a crash
// plan, the pinned lock manager), and at most one distinct node may
// crash per run — a down node takes its protected peer's replicas with
// it, so two distinct failures could lose checkpoint state.
func (cp *CrashPlan) Validate(nodes int) error {
	if !cp.Active() {
		return nil
	}
	if nodes < 2 {
		return fmt.Errorf("crash plan needs at least 2 nodes, have %d", nodes)
	}
	crashed := -1
	for i, ev := range cp.Events {
		if ev.Node <= 0 || ev.Node >= nodes {
			return fmt.Errorf("crash event %d: node %d out of range (1..%d; the master cannot crash)", i, ev.Node, nodes-1)
		}
		if ev.Barrier < 1 {
			return fmt.Errorf("crash event %d: barrier %d (must be >= 1)", i, ev.Barrier)
		}
		if crashed >= 0 && ev.Node != crashed {
			return fmt.Errorf("crash event %d: only one distinct node may crash per run (already have node %d)", i, crashed)
		}
		crashed = ev.Node
	}
	return nil
}

// Recovery job kinds for the daemon queue.
const (
	jobPing = iota
	jobRecover
)

type recoveryJob struct {
	kind  int
	node  int      // jobRecover: the node reported down
	epoch int      // jobPing: the epoch the probe was armed for
	at    sim.Time // jobRecover: detection instant, for the latency histogram
}

// ckptTableEnt is one page's directory entry in a barrier snapshot
// (permissions live in the memory image, so state and home fully
// describe the entry).
type ckptTableEnt struct {
	State dsm.State
	Home  int
}

// ckptPageCopy carries one page's full contents.
type ckptPageCopy struct {
	Page int
	Data []byte
}

// ckptFlush is a flush-time checkpoint log, node -> its buddy. Barrier
// logs carry the full snapshot and are acknowledged; the lighter logs of
// lock-release and fork flushes carry only the dirty home-page copies.
type ckptFlush struct {
	Epoch   int
	Barrier bool
	Notices []dsm.WriteNotice
	Reads   []int          // interval read set (adaptive policy; barrier logs only)
	Table   []ckptTableEnt // barrier logs only
	Pages   []ckptPageCopy // copies of home pages this flush dirtied
}

// ckptPage is an incremental home-page mirror update, home -> buddy.
type ckptPage struct {
	Page int
	Data []byte
}

// ckptTok replicates one lock token's state, node -> its buddy.
type ckptTok struct {
	Lock    int
	Cached  bool
	Notices []dsm.WriteNotice
}

// recoverState restores a restarted node from its buddy's replicas.
type recoverState struct {
	Epoch   int
	Notices []dsm.WriteNotice
	Reads   []int // interval read set for the synthesized arrival
	Table   []ckptTableEnt
	Pages   []ckptPageCopy // the node's home pages, from the mirror
	Tokens  []ckptTok
}

// ckptLog is the buddy-held barrier log of one protected node.
type ckptLog struct {
	valid   bool
	epoch   int
	notices []dsm.WriteNotice
	reads   []int
	table   []ckptTableEnt
}

// tokenReplica is the buddy-held copy of one lock token's state.
type tokenReplica struct {
	cached  bool
	notices []dsm.WriteNotice
}

// recovery is the engine's crash/recovery plane, allocated only when
// the configuration carries an active crash plan.
type recovery struct {
	plan       CrashPlan
	barrierSeq []int  // per node: Engine.Barrier calls so far
	fired      []bool // per plan event: already injected
	dead       []bool
	wasDead    []bool // recovered at least once (stale-signal filter)

	// Master-side stalled-barrier detection.
	arrivedFrom []bool
	detectArmed bool
	detectGen   int

	jobs        *sim.Queue[recoveryJob]
	restoreGate *sim.Gate // recovery daemon waits for the restore

	// State replicated for node W, notionally held at buddy(W) and
	// wiped when buddy(W) crashes.
	mirrors []map[int][]byte // W -> page -> latest home-frame copy
	logs    []ckptLog        // W -> last barrier checkpoint log
	tokens  []map[int]tokenReplica
}

// buddy returns node's checkpoint peer.
func (e *Engine) buddy(node int) int { return (node + 1) % e.cfg.Nodes }

// armRecovery validates the plan and brings up the recovery plane.
// Called from New when the configuration carries an active plan.
func (e *Engine) armRecovery(s *sim.Simulator, net *netsim.Network) {
	plan := *e.cfg.Crash
	if err := plan.Validate(e.cfg.Nodes); err != nil {
		panic("hlrc: " + err.Error())
	}
	if net.FaultPlane() == nil {
		panic("hlrc: a crash plan needs a fault plane (the reliability sublayer is the crash detector); enable ProfileCrashOnly or another profile first")
	}
	r := &recovery{
		plan:        plan,
		barrierSeq:  make([]int, e.cfg.Nodes),
		fired:       make([]bool, len(plan.Events)),
		dead:        make([]bool, e.cfg.Nodes),
		wasDead:     make([]bool, e.cfg.Nodes),
		arrivedFrom: make([]bool, e.cfg.Nodes),
		jobs:        sim.NewQueue[recoveryJob](s),
		mirrors:     make([]map[int][]byte, e.cfg.Nodes),
		logs:        make([]ckptLog, e.cfg.Nodes),
		tokens:      make([]map[int]tokenReplica, e.cfg.Nodes),
	}
	for i := range r.mirrors {
		r.mirrors[i] = map[int][]byte{}
		r.tokens[i] = map[int]tokenReplica{}
	}
	e.recov = r
	net.SetPeerDownHandler(func(observer, dead int) {
		r.jobs.Push(recoveryJob{kind: jobRecover, node: dead, at: s.Now()})
	})
	s.SpawnDaemon("hlrc-recovery", e.recoveryLoop)
}

// ---------------------------------------------------------------------
// Checkpointing (the steady-state cost of an armed plan).

// shipCkpt sends one checkpoint message to node's buddy and tallies it.
func (e *Engine) shipCkpt(p *sim.Proc, node, typ, bytes int, payload any) {
	c := e.cnt(node)
	c.CkptMsgs++
	c.CkptBytes += int64(bytes)
	e.send(p, node, e.buddy(node), typ, bytes, payload)
}

// collectSelfCopies drains the flush's dirty-home-page scratch into full
// page copies for a checkpoint log.
func (e *Engine) collectSelfCopies(ns *nodeState) []ckptPageCopy {
	if len(ns.flushSelf) == 0 {
		return nil
	}
	out := make([]ckptPageCopy, 0, len(ns.flushSelf))
	for _, pg := range ns.flushSelf {
		buf := make([]byte, dsm.PageSize)
		if f := ns.mem.FrameIfPresent(pg); f != nil {
			copy(buf, f)
		}
		out = append(out, ckptPageCopy{Page: pg, Data: buf})
	}
	ns.flushSelf = ns.flushSelf[:0]
	return out
}

func ckptFlushBytes(ck *ckptFlush) int {
	return 24 + 8*len(ck.Notices) + 8*len(ck.Reads) + 8*len(ck.Table) + (dsm.PageSize+16)*len(ck.Pages)
}

// shipMiniLog forwards the home pages a non-barrier flush (lock release,
// fork) dirtied. Unacknowledged: the buddy link is FIFO, so the next
// acknowledged barrier log also fences these.
func (e *Engine) shipMiniLog(p *sim.Proc, node int) {
	if e.recov == nil || node == 0 {
		return
	}
	ns := e.nodes[node]
	if len(ns.flushSelf) == 0 {
		return
	}
	ck := ckptFlush{Epoch: e.epoch, Pages: e.collectSelfCopies(ns)}
	e.shipCkpt(p, node, msgCkptFlush, ckptFlushBytes(&ck), ck)
}

// logBarrier ships the barrier-time checkpoint log and blocks until the
// buddy acknowledges it, so the subsequent barrier arrival is only ever
// sent with a durable snapshot behind it.
func (e *Engine) logBarrier(p *sim.Proc, node int, notices []dsm.WriteNotice, reads []int) {
	if e.recov == nil || node == 0 {
		return
	}
	ns := e.nodes[node]
	snap := make([]ckptTableEnt, ns.table.Len())
	for pg := range snap {
		pi := ns.table.Peek(pg)
		snap[pg] = ckptTableEnt{State: pi.State, Home: pi.Home}
	}
	ck := &ckptFlush{
		Epoch: e.epoch, Barrier: true,
		Notices: notices, Reads: reads, Table: snap,
		Pages: e.collectSelfCopies(ns),
	}
	ns.ckptPending = ck
	gate := sim.NewGate(e.sim)
	ns.ckptGate = gate
	e.shipCkpt(p, node, msgCkptFlush, ckptFlushBytes(ck), *ck)
	gate.Wait(p)
}

// forwardHomePage mirrors one home page's current contents to the buddy
// after it changed under protocol control (diff application, migration).
func (e *Engine) forwardHomePage(p *sim.Proc, node, pg int) {
	if e.recov == nil || node == 0 {
		return
	}
	buf := make([]byte, dsm.PageSize)
	if f := e.nodes[node].mem.FrameIfPresent(pg); f != nil {
		copy(buf, f)
	}
	e.shipCkpt(p, node, msgCkptPage, dsm.PageSize+16, ckptPage{Page: pg, Data: buf})
}

// forwardToken replicates one lock token's current state to the buddy.
func (e *Engine) forwardToken(p *sim.Proc, node, id int, nl *nodeLock) {
	if e.recov == nil || node == 0 {
		return
	}
	e.shipCkpt(p, node, msgCkptTok, 16+8*len(nl.notices),
		ckptTok{Lock: id, Cached: nl.cached, Notices: nl.notices})
}

func (e *Engine) handleCkptFlush(p *sim.Proc, node int, m *netsim.Message) {
	ck := m.Payload.(ckptFlush)
	r := e.recov
	w := m.From
	for _, pc := range ck.Pages {
		r.mirrors[w][pc.Page] = pc.Data
	}
	if ck.Barrier {
		r.logs[w] = ckptLog{valid: true, epoch: ck.Epoch, notices: ck.Notices, reads: ck.Reads, table: ck.Table}
		e.send(p, node, w, msgCkptAck, 8, nil)
	}
}

func (e *Engine) handleCkptAck(_ *sim.Proc, node int, _ *netsim.Message) {
	ns := e.nodes[node]
	if ns.ckptGate == nil {
		panic("hlrc: checkpoint ack without a pending barrier log")
	}
	gate := ns.ckptGate
	ns.ckptGate = nil
	ns.ckptPending = nil
	gate.Open()
}

func (e *Engine) handleCkptPage(m *netsim.Message) {
	pc := m.Payload.(ckptPage)
	e.recov.mirrors[m.From][pc.Page] = pc.Data
}

func (e *Engine) handleCkptTok(m *netsim.Message) {
	tk := m.Payload.(ckptTok)
	// Deep-copy the notices: the sender's slice is merged in place on
	// later releases (mergeNotices), while the replica must freeze the
	// state at replication time.
	e.recov.tokens[m.From][tk.Lock] = tokenReplica{
		cached:  tk.Cached,
		notices: append([]dsm.WriteNotice(nil), tk.Notices...),
	}
}

// ---------------------------------------------------------------------
// Crash injection.

// crashEventDue returns the index of the plan event that fires at this
// Barrier call, or -1.
func (e *Engine) crashEventDue(node int) int {
	r := e.recov
	for i := range r.plan.Events {
		ev := &r.plan.Events[i]
		if !r.fired[i] && ev.Node == node && ev.Barrier == r.barrierSeq[node] {
			return i
		}
	}
	return -1
}

// crashNow kills node at its quiescent barrier point: the flush is
// done, the checkpoint log is durable, and the barrier arrival has NOT
// been sent. The fabric drops the node's in-flight traffic, its
// volatile protocol state is wiped, and the representative parks on a
// gate that the normal barrier departure opens once recovery has
// restarted and restored the node.
func (e *Engine) crashNow(p *sim.Proc, node, evIdx int) {
	r := e.recov
	r.fired[evIdx] = true
	r.dead[node] = true

	drained := e.net.CrashNode(node)
	for _, m := range drained {
		// Every message class that can be in a crashing node's inbox is
		// either recovered by a resend (diffs, fetches, revokes, the
		// peer's checkpoint log) or harmless (probes, mirror updates).
		switch m.Type {
		case msgDiff, msgPageReq, msgLockRevoke, msgPing,
			msgCkptFlush, msgCkptPage, msgCkptTok:
		default:
			panic(fmt.Sprintf("hlrc: crash drained unrecoverable message type %d", m.Type))
		}
	}

	// The crashing node was the buddy of w: its replicas die with it.
	if w := (node - 1 + e.cfg.Nodes) % e.cfg.Nodes; w != 0 {
		r.mirrors[w] = map[int][]byte{}
		r.logs[w] = ckptLog{}
		r.tokens[w] = map[int]tokenReplica{}
	}

	// Wipe the volatile per-node state, exactly as a reboot would.
	npages := e.nodes[node].table.Len()
	gate := sim.NewGate(e.sim)
	fresh := &nodeState{
		table:       dsm.NewTable(node, npages),
		mem:         dsm.NewMemory(npages, e.cfg.Strategy),
		dirty:       map[int]struct{}{},
		fetch:       map[int]*sim.Gate{},
		lockGate:    map[int]*sim.Gate{},
		lockCache:   map[int]*nodeLock{},
		flushBundle: map[int][]*dsm.Diff{},
		relNotices:  map[int]struct{}{},
		readObs:     map[int]struct{}{},
		barrierGate: gate,
	}
	e.nodes[node] = fresh
	gate.Wait(p)
}

// ---------------------------------------------------------------------
// Detection.

// noteArrival tracks per-node barrier arrivals and arms the master's
// stalled-barrier probe while the barrier is incomplete.
func (e *Engine) noteArrival(from int) {
	r := e.recov
	r.arrivedFrom[from] = true
	if r.detectArmed {
		return
	}
	r.detectArmed = true
	r.detectGen++
	gen, epoch := r.detectGen, e.epoch
	e.sim.At(detectTimeout, func() { e.detectTick(gen, epoch) })
}

// detectTick fires on the virtual clock while a barrier is stalled; it
// queues a probe round and re-arms itself. The chain dies when the
// barrier completes (detectArmed cleared / generation bumped) or the
// epoch moves on.
func (e *Engine) detectTick(gen, epoch int) {
	r := e.recov
	if !r.detectArmed || gen != r.detectGen || epoch != e.epoch {
		return
	}
	r.jobs.Push(recoveryJob{kind: jobPing, epoch: epoch})
	e.sim.At(detectTimeout, func() { e.detectTick(gen, epoch) })
}

// pingMissing probes every member that has not arrived at the stalled
// barrier. A probe to a crashed node exhausts its retry budget and
// surfaces the peer-down signal that starts recovery; probes to live
// stragglers are no-ops.
func (e *Engine) pingMissing(p *sim.Proc, epoch int) {
	if epoch != e.epoch {
		return
	}
	r := e.recov
	for n := 1; n < e.cfg.Nodes; n++ {
		if !r.arrivedFrom[n] {
			e.send(p, 0, n, msgPing, 8, nil)
		}
	}
}

// ---------------------------------------------------------------------
// The recovery daemon.

func (e *Engine) recoveryLoop(p *sim.Proc) {
	for {
		j := e.recov.jobs.Pop(p)
		switch j.kind {
		case jobPing:
			e.pingMissing(p, j.epoch)
		case jobRecover:
			e.recoverNode(p, j.node, j.at)
		}
	}
}

// sleepFor blocks p for a virtual duration.
func (e *Engine) sleepFor(p *sim.Proc, d sim.Duration) {
	g := sim.NewGate(e.sim)
	e.sim.At(d, g.Open)
	g.Wait(p)
}

// recoverNode runs one recovery, serialized on the daemon.
func (e *Engine) recoverNode(p *sim.Proc, node int, t0 sim.Time) {
	r := e.recov
	if !r.dead[node] && r.wasDead[node] {
		return // late duplicate of an already-handled signal
	}
	if !r.dead[node] {
		panic("hlrc: peer-down signal for a live node")
	}
	e.recoverRestart(p, node)
	r.wasDead[node] = true
	e.cnt(0).Recoveries++
	e.rec.RecoveryDone(t0, e.sim.Now(), 0)
}

// recoverRestart brings node back after the outage and replays the
// buddy snapshot into it, then re-drives every conversation the crash
// left stuck.
func (e *Engine) recoverRestart(p *sim.Proc, node int) {
	r := e.recov
	e.sleepFor(p, restartDelay)
	e.net.RestartNode(node)
	r.dead[node] = false

	log := &r.logs[node]
	if !log.valid || log.epoch != e.epoch {
		panic("hlrc: restart without a matching barrier checkpoint log")
	}
	// The node's home frames, from the buddy mirror. Every home page of
	// a non-master node arrived by migration and was mirrored then, so
	// the mirror must cover the snapshot's home set.
	var pages []ckptPageCopy
	for pg := range log.table {
		if log.table[pg].Home != node {
			continue
		}
		data := r.mirrors[node][pg]
		if data == nil {
			panic(fmt.Sprintf("hlrc: no mirror for page %d homed at crashed node %d", pg, node))
		}
		pages = append(pages, ckptPageCopy{Page: pg, Data: data})
	}
	toks := make([]ckptTok, 0, len(r.tokens[node]))
	ids := make([]int, 0, len(r.tokens[node]))
	for id := range r.tokens[node] {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := r.tokens[node][id]
		toks = append(toks, ckptTok{Lock: id, Cached: t.cached, Notices: t.notices})
	}
	rs := recoverState{Epoch: log.epoch, Notices: log.notices, Reads: log.reads, Table: log.table, Pages: pages, Tokens: toks}
	bytes := 24 + 8*len(rs.Notices) + 8*len(rs.Reads) + 8*len(rs.Table) + (dsm.PageSize+16)*len(rs.Pages) + 16*len(rs.Tokens)
	gate := sim.NewGate(e.sim)
	r.restoreGate = gate
	e.send(p, e.buddy(node), node, msgRecoverState, bytes, rs)
	gate.Wait(p)
	r.restoreGate = nil

	e.resendStuck(p, node)
}

// resendStuck re-drives the conversations that were in flight toward
// the crashed node: the fabric dropped them, so the recovery daemon
// reissues each through the normal protocol path (idempotent at a node
// restored to its pre-interval snapshot).
func (e *Engine) resendStuck(p *sim.Proc, node int) {
	r := e.recov
	// Diff bundles whose ack never came: the flusher still holds them.
	for y := 0; y < e.cfg.Nodes; y++ {
		if y == node || r.dead[y] {
			continue
		}
		ns := e.nodes[y]
		if !ns.flushAwait[node] {
			continue
		}
		diffs := ns.flushBundle[node]
		bytes := 0
		for _, d := range diffs {
			bytes += d.WireBytes()
		}
		e.send(p, y, node, msgDiff, bytes, diffMsg{Diffs: diffs})
		e.cnt(y).ResentBundles++
	}
	// Page fetches stalled against the restarted home.
	for y := 0; y < e.cfg.Nodes; y++ {
		if y == node || r.dead[y] {
			continue
		}
		ns := e.nodes[y]
		pgs := make([]int, 0, len(ns.fetch))
		for pg := range ns.fetch {
			if ns.table.Peek(pg).Home == node {
				pgs = append(pgs, pg)
			}
		}
		sort.Ints(pgs)
		for _, pg := range pgs {
			e.send(p, y, node, msgPageReq, 16, pageReq{Page: pg})
			e.cnt(y).Refetches++
		}
	}
	// The protected peer's own barrier log, if its ack is outstanding
	// (the crashed node is that peer's buddy).
	if w := (node - 1 + e.cfg.Nodes) % e.cfg.Nodes; w != 0 && !r.dead[w] {
		if ck := e.nodes[w].ckptPending; ck != nil {
			e.shipCkpt(p, w, msgCkptFlush, ckptFlushBytes(ck), *ck)
		}
	}
	// Token revokes the crash swallowed: queued requesters mean a
	// recall was (or should be) outstanding against the holder.
	if e.cfg.LockCaching {
		ids := make([]int, 0, len(e.locks[0]))
		for id := range e.locks[0] {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			ls := e.locks[0][id]
			if ls.held && ls.holder == node && len(ls.queue) > 0 {
				e.sendRevoke(p, id, node)
				e.cnt(0).ReclaimedLocks++
			}
		}
	}
}

// handleRecoverState rebuilds the restarted node from the buddy
// snapshot, on the node's own communication thread.
func (e *Engine) handleRecoverState(p *sim.Proc, node int, m *netsim.Message) {
	rs := m.Payload.(recoverState)
	if rs.Epoch != e.epoch {
		panic("hlrc: restore snapshot from a different epoch")
	}
	ns := e.nodes[node]
	e.cpus[node].Compute(p, CostPageCopy*sim.Duration(len(rs.Pages)+1))
	// Directory first. Assignment (not Table.Set) because a snapshot
	// state is not a legal runtime transition from the reboot state.
	// Entries the reboot state already matches are left alone, so the
	// whole-pool sweep materializes only what the node had touched.
	for pg := range rs.Table {
		ent := rs.Table[pg]
		if ent.State != dsm.ReadOnly && ent.State != dsm.Invalid {
			panic(fmt.Sprintf("hlrc: snapshot page %d in non-quiescent state %v", pg, ent.State))
		}
		if cur := ns.table.Peek(pg); cur.State != ent.State || cur.Home != ent.Home {
			pi := ns.table.At(pg)
			pi.State = ent.State
			pi.Home = ent.Home
		}
	}
	// Home frames from the mirror.
	for _, pc := range rs.Pages {
		ns.mem.CopyIn(pc.Page, pc.Data)
	}
	// Replica contents and application permissions. A ReadOnly replica's
	// bytes are re-read from the page's current home frame: pages nobody
	// modified in the interval are unchanged there, and pages another
	// node modified would have been invalidated by the imminent barrier
	// departure anyway, so the copy is observationally identical to the
	// fault-free replica.
	for pg := range rs.Table {
		ent := rs.Table[pg]
		switch {
		case ent.Home == node:
			ns.mem.SetAppPerm(pg, dsm.PermRead)
		case ent.State == dsm.ReadOnly:
			ns.mem.CopyIn(pg, e.nodes[ent.Home].mem.FrameIfPresent(pg))
			ns.mem.SetAppPerm(pg, dsm.PermRead)
		default:
			ns.mem.SetAppPerm(pg, dsm.PermNone)
		}
	}
	// Lock tokens. Every token replica is installed (cached or not) so
	// the lock-cache key set matches a fault-free node's.
	for _, tk := range rs.Tokens {
		nl := ns.nodeLockFor(tk.Lock)
		nl.cached = tk.Cached
		nl.inUse = false
		nl.revokePending = false
		nl.notices = append([]dsm.WriteNotice(nil), tk.Notices...)
	}
	e.cnt(node).PagesRestored += int64(len(rs.Pages))
	// Synthesize the barrier arrival the crash suppressed: the logged
	// notices (and, under the adaptive policy, the logged interval read
	// set) are exactly what the node would have sent.
	e.send(p, node, 0, msgBarrierArrive, 16+8*len(rs.Notices)+8*len(rs.Reads),
		barrierArrive{Epoch: rs.Epoch, Notices: rs.Notices, Reads: rs.Reads})
	// Only now may the daemon re-drive stuck traffic at this node: a
	// resent diff arriving before the directory restore would find a
	// reboot-state table.
	e.recov.restoreGate.Open()
}
