package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"parade/internal/dsm"
	"parade/internal/hlrc"
	"parade/internal/mpi"
	"parade/internal/netsim"
	"parade/internal/obs"
	"parade/internal/sim"
	"parade/internal/stats"
)

// Control message subtypes (netsim KindDSM space is owned by hlrc, so the
// runtime uses its own kind).
const (
	ctlStartRegion = iota + 1
	ctlStop
)

// KindCtl is the runtime's control traffic (region fork/join, shutdown).
const KindCtl netsim.Kind = 100

// Cluster is one simulated SMP cluster executing a ParADE program.
type Cluster struct {
	cfg    Config
	s      *sim.Simulator
	net    *netsim.Network
	world  *mpi.World
	engine *hlrc.Engine
	stats  *stats.Registry // the run's counter registry (created by the network)
	lanes  bool            // cfg.Lanes > 0: per-node event-lane kernel (lanes.go)
	hetero *netsim.Hetero  // nil: uniform cluster (Config.Hetero)
	rec    *obs.Recorder   // nil when observability is disabled

	nodes   []*node
	threads []*Thread // all team threads in gid order

	region    func(*Thread) // current parallel region body
	regionSeq int
	stopping  bool

	scalars    map[string]*Scalar
	singles    map[string]int // single-site name -> SDSM flag address
	lockIDs    map[string]int // directive site -> global SDSM lock id
	slotArrays map[string]F64Array
	dynLoops   map[string]*dynLoop // chunk-server state (master node)

	// Tasking runtime (task.go): cluster-wide live-task count, the
	// condition idle drainers park on, the seeded victim-selection
	// rotation, and the cumulative count of Taskwait join arrivals
	// (monotonic — thread joinEpoch × team size gives each join's
	// arrival target, so no reset is ever needed).
	taskMu      *sim.Mutex
	taskCond    *sim.Cond
	tasksLive   int
	stealRot    uint64
	taskArrived uint64

	// abortErr is the first runtime error a thread aborted the run with
	// (depend.go); the always-installed cancellation hook polls it.
	// Atomic because lane mode polls from every lane concurrently.
	abortErr atomic.Pointer[runAbort]

	programEnd sim.Time
}

// node is the per-node runtime state: the processors, the communication
// thread's plumbing, the pthread-level synchronization objects.
type node struct {
	id  int
	s   *sim.Simulator
	cpu *sim.CPU

	mutexes map[string]*sim.Mutex // named intra-node (pthread) mutexes

	// Fork-join signalling between the comm thread and team threads.
	workMu   *sim.Mutex
	workCond *sim.Cond
	workSeq  int

	// Node-local sense barrier.
	barMu    *sim.Mutex
	barCond  *sim.Cond
	barCount int
	barGen   int

	rendezvous map[string]*rendezvous
	gates      map[string]*gateInfo

	// Dynamic-schedule chunk requests in flight from this node.
	chunkSeq   int
	chunkWaits map[int]*chunkWait

	// Tasking runtime (task.go): the node's task deque (index 0 oldest —
	// local threads pop the tail, thieves take the head), the executed-task
	// result records pending the next Taskwait merge, and the node's
	// in-flight steal requests.
	taskq       []*task
	taskResults []taskResult
	stealSeq    int
	stealWaits  map[int]*stealWait

	// Dependence-resolver graph (depend.go): tracked tasks spawned from
	// contexts living on this node, keyed by canonical task id. Entries
	// are deleted at completion; held tasks sit in their entry until
	// their predecessor count drains.
	depGraph map[uint64]*depNode

	// Event-lane mode (lanes.go): per-node replicas of the directive-site
	// registries and the shared-memory allocator (kept in lockstep by SPMD
	// first-use order), the spawn/execute tallies behind the tasking
	// quiescence vote, and the node's seeded steal rotation.
	lockIDs      map[string]int
	singles      map[string]int
	slotArrays   map[string]F64Array
	alloc        *dsm.Allocator
	taskSpawned  int64
	taskExecuted int64
	stealRot     uint64
}

// localPthreadOp approximates the cost of an uncontended pthread
// mutex/cond operation on the paper's hardware.
const localPthreadOp = 300 * sim.Nanosecond

// Report is the outcome of a cluster run.
type Report struct {
	// Time is the virtual time at which the program (master thread)
	// finished, excluding shutdown.
	Time sim.Duration
	// Counters are the protocol/traffic statistics of the whole run.
	Counters stats.Counters
	// Config echoes the configuration that produced the report.
	Config Config
	// CPUBusy is each node's accumulated processor busy time — the
	// idle-time signal the paper's §8 adaptive-configuration idea wants
	// to measure.
	CPUBusy []sim.Duration
	// PageReport lists the hottest shared pages (top 16 by fetches) —
	// the diagnostic behind the paper's §7 locality guidelines.
	PageReport []hlrc.PageStat
	// MemHash fingerprints the final DSM state (page homes, validity, and
	// contents). Two runs of the same program that agree here finished
	// with identical shared memory — the chaos harness compares it across
	// fault profiles.
	MemHash uint64
	// Obs is the run's observability metrics (the per-node rows behind
	// Counters, latency histograms, per-region phases); nil unless
	// Config.Obs was set.
	Obs *obs.Metrics
}

// Utilization returns mean processor utilization across the cluster in
// [0,1]: busy time divided by (nodes x CPUs x elapsed time).
func (r Report) Utilization() float64 {
	if r.Time <= 0 || len(r.CPUBusy) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, b := range r.CPUBusy {
		busy += b
	}
	capacity := float64(r.Time) * float64(len(r.CPUBusy)*r.Config.CPUsPerNode)
	u := float64(busy) / capacity
	if u > 1 {
		u = 1
	}
	return u
}

// Run builds a cluster from cfg and executes program on the master
// thread (global thread 0 on node 0). The program performs serial work
// directly and forks parallel regions with Thread.Parallel. Run drives
// the simulation to completion and returns the report.
func Run(cfg Config, program func(master *Thread)) (Report, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	c := &Cluster{
		cfg:     cfg,
		s:       sim.New(cfg.Seed),
		scalars: map[string]*Scalar{},
		singles: map[string]int{},
	}
	if cfg.Lanes > 0 {
		// Configure lanes before any layer is built: the observability
		// registry sizes its histogram and phase shards off the simulator's
		// lane regime. A crash plan switches the kernel to the relaxed
		// single-worker regime (recovery rewrites other nodes' timelines,
		// which the strict window protocol forbids).
		c.lanes = true
		c.s.ConfigureLanes(cfg.Nodes, cfg.Lanes, laneLookahead(cfg.Fabric), cfg.Crash.Active())
		c.s.SetWindowChurn(laneWindowChurn)
	}
	cpus := make([]*sim.CPU, cfg.Nodes)
	c.nodes = make([]*node, cfg.Nodes)
	for i := range c.nodes {
		cpu := sim.NewCPU(c.s, cfg.CPUsPerNode, cfg.Quantum)
		cpus[i] = cpu
		n := &node{
			id: i, s: c.s, cpu: cpu,
			mutexes:    map[string]*sim.Mutex{},
			rendezvous: map[string]*rendezvous{},
			gates:      map[string]*gateInfo{},
			chunkWaits: map[int]*chunkWait{},
			stealWaits: map[int]*stealWait{},
		}
		n.workMu = sim.NewMutex(c.s)
		n.workCond = sim.NewCond(n.workMu)
		n.barMu = sim.NewMutex(c.s)
		n.barCond = sim.NewCond(n.barMu)
		n.stealRot = splitmix64(uint64(cfg.Seed) + uint64(i)*0x9e3779b97f4a7c15)
		if c.lanes {
			n.lockIDs = map[string]int{}
			n.singles = map[string]int{}
			n.slotArrays = map[string]F64Array{}
		}
		c.nodes[i] = n
	}
	c.taskMu = sim.NewMutex(c.s)
	c.taskCond = sim.NewCond(c.taskMu)
	c.stealRot = splitmix64(uint64(cfg.Seed))
	c.hetero = cfg.Hetero
	counters := &stats.Counters{} // the registry's fold destination
	c.net = netsim.New(c.s, cfg.Nodes, cfg.Fabric, cpus, counters)
	c.stats = c.net.Counters()
	c.net.EnableHetero(cfg.Hetero)
	if cfg.Crash.Active() && cfg.Faults == nil {
		// Crash detection rides the reliability sublayer's retransmit
		// timers, so a fault plane is mandatory; the crash-only plane
		// injects no link faults and leaves fault-free timing untouched.
		prof := netsim.ProfileCrashOnly(cfg.Seed)
		cfg.Faults = &prof
	}
	if cfg.Faults != nil {
		c.net.EnableFaults(*cfg.Faults)
	}
	c.world = mpi.NewWorld(c.s, c.net, counters)
	c.engine = hlrc.New(c.s, c.net, cpus, hlrc.Config{
		Nodes: cfg.Nodes, ShmBytes: cfg.ShmBytes,
		HomeMigration: cfg.HomeMigration, LockCaching: cfg.LockCaching,
		Strategy: cfg.Strategy, Cost: cfg.Cost, Crash: cfg.Crash,
		Policy: cfg.Policy,
	}, counters)
	if c.lanes {
		// Per-node allocator replicas (lanes.go): node 0's replica is the
		// engine's allocator itself, so node 0's lane-local lazy
		// allocations and the master's serial-context allocations both
		// advance the real pool; the other replicas track it in SPMD
		// lockstep.
		for _, n := range c.nodes {
			if n.id == 0 {
				n.alloc = c.engine.Alloc
			} else {
				n.alloc = dsm.NewAllocator(cfg.ShmBytes)
			}
		}
	}

	if cfg.Obs != nil {
		// One recorder observes every layer. The simulation kernel runs
		// exactly one goroutine at a time, so the recorder's plain field
		// writes need no synchronization (see internal/obs).
		rec := cfg.Obs
		c.rec = rec
		c.engine.SetRecorder(rec)
		c.net.SetRecorder(rec)
		c.world.SetRecorder(rec)
		if c.lanes && !c.s.Relaxed() {
			rec.ShardForLanes(cfg.Nodes)
		}
		for i, cpu := range cpus {
			i := i
			cpu.OnWait = func(d sim.Duration) { rec.CPUWait(i, d) }
		}
	}

	// Communication threads (paper §5.3): one per node, dispatching MPI
	// traffic to the matching engine, DSM traffic to the protocol
	// handler, and control traffic to the fork-join machinery.
	for i := range c.nodes {
		i := i
		c.s.SpawnOn(i, fmt.Sprintf("comm%d", i), func(p *sim.Proc) { c.commLoop(p, i) })
	}

	// Team threads: gid = node*ThreadsPerNode + lid. Thread 0 is the
	// master and runs the program; the rest wait for parallel regions.
	total := cfg.Nodes * cfg.ThreadsPerNode
	c.threads = make([]*Thread, total)
	for gid := 0; gid < total; gid++ {
		gid := gid
		t := &Thread{c: c, gid: gid, node: c.nodes[gid/cfg.ThreadsPerNode]}
		c.threads[gid] = t
		name := fmt.Sprintf("n%dt%d", t.node.id, gid%cfg.ThreadsPerNode)
		c.s.SpawnOn(t.node.id, name, func(p *sim.Proc) {
			t.p = p
			if gid == 0 {
				program(t)
				c.programEnd = p.Now()
				c.shutdown(p)
				return
			}
			t.workerLoop(p)
		})
	}

	// The cancellation hook is always installed: runtime errors the
	// threads cannot panic with (a task dependence cycle — a sim-goroutine
	// panic would kill the process, see internal/sim) surface by storing
	// abortErr and letting the kernel's poll unwind the run; the user's
	// own cancel/deadline hook, when configured, is checked second.
	userHook := cancelHook(cfg)
	c.s.SetCancel(func() error {
		if a := c.abortErr.Load(); a != nil {
			return a.err
		}
		if userHook != nil {
			return userHook()
		}
		return nil
	}, 0)
	if err := c.s.Run(); err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			// Canceled (hook or deadline): the kernel has unwound every
			// goroutine, so the layers are quiescent — fold what ran into a
			// partial report (counters, timing, utilization) alongside the
			// typed error. Identity fields (MemHash, PageReport) are left
			// zero: a mid-run fingerprint carries no bit-identity meaning.
			return c.report(cfg, cpus), err
		}
		if pd := c.net.PeerDownErr(); pd != nil {
			// A stalled simulation with a recorded retry exhaustion is an
			// undetected node failure, not a runtime bug: surface the
			// typed peer-down cause (errors.Is(err, netsim.ErrPeerDown)).
			return Report{}, fmt.Errorf("core: %v: %w", err, pd)
		}
		return Report{}, err
	}
	rep := c.report(cfg, cpus)
	rep.Time = sim.Duration(c.programEnd)
	rep.PageReport = c.engine.PageReport(16)
	rep.MemHash = c.engine.StateFingerprint()
	return rep, nil
}

// report builds the Report of everything that is meaningful at any
// stopping point — elapsed virtual time, the folded counters,
// per-node busy time, observability metrics. A canceled run returns it
// as is; a completed run adds the program end time and the identity
// fields. Called only after sim.Run returned: the kernel is torn down
// and every layer is quiescent.
func (c *Cluster) report(cfg Config, cpus []*sim.CPU) Report {
	rep := Report{Time: sim.Duration(c.s.Now()), Config: cfg, CPUBusy: make([]sim.Duration, cfg.Nodes)}
	for i, cpu := range cpus {
		rep.CPUBusy[i] = cpu.BusyTime
		c.cnt(i).CPUWaitNs = int64(cpu.WaitTime)
	}
	rep.Counters = *c.stats.Fold()
	if c.rec != nil {
		// Merge the recorder's per-lane histogram and phase shards and hand
		// it the counter rows: its per-node view is the registry's.
		c.rec.FoldLanes()
		laneReport(c.s, c.rec)
		rep.Obs = c.rec.Metrics()
		rep.Obs.SetNodeCounters(c.stats.Rows())
	}
	return rep
}

// commLoop is one node's communication thread. It exits on the stop
// control message.
func (c *Cluster) commLoop(p *sim.Proc, nodeID int) {
	inbox := c.net.Inbox(nodeID)
	for {
		m := inbox.Pop(p)
		c.net.RecvCost(p, nodeID)
		switch m.Kind {
		case netsim.KindMPI:
			c.world.Rank(nodeID).Deliver(m)
		case netsim.KindDSM:
			c.engine.Handle(p, nodeID, m)
		case KindCtl:
			switch m.Type {
			case ctlStartRegion:
				if notices, ok := m.Payload.([]dsm.WriteNotice); ok {
					c.engine.ApplyNotices(nodeID, notices)
				}
				c.startRegionLocal(p, nodeID)
			case ctlChunkReq:
				c.handleChunkReq(p, m)
			case ctlChunkReply:
				c.handleChunkReply(nodeID, m)
			case ctlStealReq:
				c.handleStealReq(p, nodeID, m)
			case ctlStealReply:
				c.handleStealReply(nodeID, m)
			case ctlTaskDone:
				c.handleTaskDone(p, nodeID, m)
			case ctlTaskPush:
				c.handleTaskPush(p, nodeID, m)
			case ctlStop:
				c.stopLocal(p, nodeID)
				return
			default:
				panic(fmt.Sprintf("core: unknown control type %d", m.Type))
			}
		default:
			panic(fmt.Sprintf("core: unknown message kind %d", m.Kind))
		}
	}
}

// startRegionLocal wakes the node's team threads for a new region.
func (c *Cluster) startRegionLocal(p *sim.Proc, nodeID int) {
	if c.lanes {
		// Reading regionSeq from another node's lane is safe and exact:
		// the ctlStartRegion message carries the happens-before edge, and
		// the master cannot advance to the next region until this node
		// joins the current one's barrier.
		c.rec.RegionBeginOn(nodeID, c.regionSeq)
	}
	n := c.nodes[nodeID]
	n.workMu.Lock(p)
	n.workSeq++
	n.workCond.Broadcast()
	n.workMu.Unlock(p)
}

// stopLocal wakes the node's team threads for shutdown.
func (c *Cluster) stopLocal(p *sim.Proc, nodeID int) {
	n := c.nodes[nodeID]
	n.workMu.Lock(p)
	n.workSeq++
	n.workCond.Broadcast()
	n.workMu.Unlock(p)
}

// shutdown is executed by the master after the program returns: tell
// every communication thread to stop (which in turn releases the
// node's worker threads).
func (c *Cluster) shutdown(p *sim.Proc) {
	c.stopping = true
	for i := 0; i < c.cfg.Nodes; i++ {
		c.net.Send(p, &netsim.Message{From: 0, To: i, Kind: KindCtl, Type: ctlStop, Bytes: 8})
	}
}

// Sim exposes the simulator (used by apps to read the virtual clock).
func (c *Cluster) Sim() *sim.Simulator { return c.s }

// Engine exposes the protocol engine (used by tests and the harness).
func (c *Cluster) Engine() *hlrc.Engine { return c.engine }

// Config returns the cluster's (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// TotalThreads returns the team size: Nodes * ThreadsPerNode.
func (c *Cluster) TotalThreads() int { return c.cfg.Nodes * c.cfg.ThreadsPerNode }

// mutex returns the node's named pthread mutex, creating it on first use.
func (n *node) mutex(name string) *sim.Mutex {
	m := n.mutexes[name]
	if m == nil {
		// All node state is owned by the single-threaded simulation, so
		// creating on first use is race-free.
		m = sim.NewMutex(n.s)
		n.mutexes[name] = m
	}
	return m
}
