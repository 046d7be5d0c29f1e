// Package parade is the public API of the ParADE reproduction: an OpenMP
// programming environment for SMP cluster systems (Kee, Kim, Ha — SC'03)
// rebuilt as a deterministic simulation library in Go.
//
// A ParADE program is a function of a master Thread. Serial sections run
// on the master; Thread.Parallel forks the team across the simulated
// cluster's nodes. Work-sharing and synchronization directives mirror
// OpenMP: For, Critical, Atomic, Single, Master, Barrier, Reduce. Large
// shared data lives in software distributed shared memory kept coherent
// by home-based lazy release consistency with migratory home; directives
// that guard small, statically analyzable data are executed with
// message-passing collectives instead of SDSM locks — the paper's hybrid
// execution model.
//
// Quick start:
//
//	cfg := parade.Config{Nodes: 4, ThreadsPerNode: 2, HomeMigration: true}
//	report, err := parade.Run(cfg, func(m *parade.Thread) {
//		a := m.Cluster().AllocF64(1 << 16)
//		m.Parallel(func(tc *parade.Thread) {
//			tc.For(0, a.Len(), func(i int) { a.Set(tc, i, float64(i)) })
//			sum := tc.Reduce("sum", parade.OpSum, partialOf(tc, a))
//			tc.Master(func() { fmt.Println("sum:", sum) })
//		})
//	})
//
// The same program runs under the conventional SDSM baseline (KDSM) by
// setting Mode: parade.SDSM and HomeMigration: false, which is how the
// paper's microbenchmark comparisons are produced.
//
// Loop schedules are functional options on Thread.For — WithSchedule
// selects static, dynamic, or guided distribution; Nowait elides the
// implicit barrier; WithIterCost attaches a per-iteration virtual
// compute cost. Irregular workloads use the tasking runtime:
// Thread.Task spawns deferred work onto the spawner's node deque,
// Thread.Taskloop turns a loop into stealable chunks, and
// Thread.Taskwait joins the team and returns the merged task results.
// Idle nodes steal queued tasks over the simulated fabric, and results
// merge in a canonical order, so the answer is bit-identical across
// steal schedules, fault profiles, and crash recoveries.
//
// Tasks compose into dependence graphs with WithDepend: in/out/inout
// clauses on shared addresses (DepAddr), abstract named objects
// (DepName), or named sibling tasks (DepTask, registered with
// WithTaskName) order tasks by the spawning context's program order, so
// the graph — and every result bit — is identical across steal
// schedules, fault profiles and crash schedules. Circular
// depend sets are rejected with *TaskCycleError. Thread.Target pins a
// task to a device node, with WithMap moving its pages eagerly (map to:
// one batched prefetch before the body; map from: queued for the
// spawner's next barrier refresh) instead of demand-faulting. A
// Config.Hetero profile makes per-node compute speed non-uniform, so
// device placement becomes observable in run times.
package parade

import (
	"parade/internal/core"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// Re-exported runtime types. The aliases keep one implementation while
// giving downstream users a stable import path.
type (
	// Config describes a simulated cluster (see core.Config).
	Config = core.Config
	// Thread is an OpenMP thread execution context.
	Thread = core.Thread
	// Cluster is the runtime instance behind a running program.
	Cluster = core.Cluster
	// Report carries the virtual execution time and protocol counters.
	Report = core.Report
	// Mode selects hybrid (ParADE) or conventional (SDSM) lowering.
	Mode = core.Mode
	// Op is a reduction operator.
	Op = core.Op
	// Scalar is a small shared variable managed by the update protocol.
	Scalar = core.Scalar
	// F64Array is a shared float64 array in distributed shared memory.
	F64Array = core.F64Array
	// I64Array is a shared int64 array in distributed shared memory.
	I64Array = core.I64Array
	// ScheduleKind selects a work-sharing loop's schedule clause.
	ScheduleKind = core.ScheduleKind
	// ForOption configures Thread.For and Thread.Taskloop (see
	// WithSchedule, Nowait, WithIterCost, WithName, WithGrainsize).
	ForOption = core.ForOption
	// ForTaskOption is a clause valid on both surfaces — the work-sharing
	// loops (For) and the tasking constructs (Task, Taskloop, Target).
	// Every loop-shaped option this package provides is one.
	ForTaskOption = core.ForTaskOption
	// TaskOption configures Thread.Task, Thread.Taskloop and
	// Thread.Target (see WithDepend, WithTaskName, WithPriority, WithMap;
	// every ForTaskOption is also a TaskOption).
	TaskOption = core.TaskOption
	// DepKind classifies a depend clause: how the task accesses the
	// handles it names (In, Out, InOut).
	DepKind = core.DepKind
	// DepHandle names one dependence object of a depend clause (see
	// DepAddr, DepName, DepTask).
	DepHandle = core.DepHandle
	// MapDir is the direction of a Target data-mapping clause (MapTo,
	// MapFrom, MapToFrom).
	MapDir = core.MapDir
	// MapSpec is one resolved map clause: a direction and its page set.
	MapSpec = core.MapSpec
	// Mappable is a shared-memory object accepted by WithMap; F64Array
	// and I64Array are Mappable.
	Mappable = core.Mappable
	// TaskCycleError reports a circular depend set; Run returns it
	// (errors.As-matchable) and aborts the program.
	TaskCycleError = core.TaskCycleError
	// Hetero is a per-node compute-speed profile for Config.Hetero.
	Hetero = netsim.Hetero
	// Fabric holds interconnect performance parameters.
	Fabric = netsim.Fabric
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
)

// Execution modes.
const (
	// Hybrid is the ParADE execution model (collectives for small data).
	Hybrid = core.Hybrid
	// SDSM is the conventional lock-based lowering (the KDSM baseline).
	SDSM = core.SDSM
)

// Reduction operators.
const (
	OpSum  = core.OpSum
	OpMax  = core.OpMax
	OpMin  = core.OpMin
	OpProd = core.OpProd
)

// Loop schedules (the schedule clause of Thread.For).
const (
	// Static is the paper's §4.3 schedule: contiguous per-thread blocks.
	Static = core.Static
	// Dynamic serves fixed-size chunks first-come-first-served from a
	// chunk server on the master node.
	Dynamic = core.Dynamic
	// Guided serves exponentially shrinking chunks floored at the
	// configured minimum.
	Guided = core.Guided
)

// Dependence kinds (the depend clause of WithDepend).
const (
	// In declares the task a reader: it runs after the handle's last
	// Out/InOut writer.
	In = core.In
	// Out declares the task a writer: it runs after the handle's last
	// writer and after every reader registered since.
	Out = core.Out
	// InOut declares the task both; ordering is identical to Out.
	InOut = core.InOut
)

// Map directions (the map clause of WithMap).
const (
	// MapTo pushes the mapped pages to the device before the body runs.
	MapTo = core.MapTo
	// MapFrom queues the mapped pages for the spawning node's next
	// barrier-time refresh after the task completes.
	MapFrom = core.MapFrom
	// MapToFrom combines both directions.
	MapToFrom = core.MapToFrom
)

// WithSchedule selects a loop's schedule: the fixed chunk size under
// Dynamic, the minimum chunk under Guided; ignored under Static.
func WithSchedule(kind ScheduleKind, chunk int) ForTaskOption {
	return core.WithSchedule(kind, chunk)
}

// Nowait elides a loop's implicit trailing barrier (the nowait clause).
func Nowait() ForTaskOption { return core.Nowait() }

// WithIterCost charges d of virtual processor time per loop iteration.
func WithIterCost(d Duration) ForTaskOption { return core.WithIterCost(d) }

// WithName names a loop site; dynamic and guided loops key their chunk
// server by it, and Taskloop uses it for tracing.
func WithName(name string) ForTaskOption { return core.WithName(name) }

// WithGrainsize sets Taskloop's chunk length (iterations per spawned
// task); under Dynamic/Guided schedules it is an alias for the chunk.
func WithGrainsize(g int) ForTaskOption { return core.WithGrainsize(g) }

// DepAddr names a shared-memory address as a dependence object (the
// OpenMP `depend(in: a[i])` form); see F64Array.Addr.
func DepAddr(addr int) DepHandle { return core.DepAddr(addr) }

// DepName names an abstract dependence object — a resource with no
// single address (a file, a phase, a whole array).
func DepName(name string) DepHandle { return core.DepName(name) }

// DepTask names a sibling task registered with WithTaskName: the
// depending task runs only after that task completes. References no
// sibling ever registers resolve vacuously at the context's end;
// circular reference sets are rejected with *TaskCycleError.
func DepTask(name string) DepHandle { return core.DepTask(name) }

// WithDepend declares a task's dependences of one kind on the given
// handles (the depend clause); repeat the option to mix kinds. Ordering
// between tasks follows their spawn order in the spawning context, so
// the graph is identical across steal schedules, fault profiles and
// crash schedules.
func WithDepend(kind DepKind, handles ...DepHandle) TaskOption {
	return core.WithDepend(kind, handles...)
}

// WithTaskName registers the task under name in its spawning context so
// later siblings can order themselves after it with DepTask(name).
func WithTaskName(name string) TaskOption { return core.WithTaskName(name) }

// WithPriority hints the scheduler to prefer this task: a node's threads
// pop higher priorities first and thieves steal the lowest. Priority
// never overrides dependence order.
func WithPriority(p int) TaskOption { return core.WithPriority(p) }

// WithMap attaches a data-mapping clause to a Target task: the pages of
// the given objects move eagerly in the clause's direction instead of
// demand-faulting through the DSM.
func WithMap(dir MapDir, objs ...Mappable) TaskOption { return core.WithMap(dir, objs...) }

// HeteroByName builds a named per-node speed profile for Config.Hetero:
// "uniform" (or "") is the uniform cluster, "fasthalf" makes the second
// half of the nodes 2x slower, "slow1" makes node 1 4x slower.
func HeteroByName(name string, nodes int) (*Hetero, error) {
	return netsim.HeteroByName(name, nodes)
}

// Run builds a simulated cluster from cfg and executes program on the
// master thread, returning the run report.
func Run(cfg Config, program func(master *Thread)) (Report, error) {
	return core.Run(cfg, program)
}

// VIA returns the Giganet cLAN Virtual Interface Architecture fabric of
// the paper's testbed.
func VIA() Fabric { return netsim.VIA() }

// TCP returns the Fast Ethernet TCP/IP fabric (MPI/Pro-style).
func TCP() Fabric { return netsim.TCP() }

// Config1T1C, Config1T2C and Config2T2C are the paper's three
// thread/CPU configurations (§6.2).
var (
	Config1T1C = core.Config1T1C
	Config1T2C = core.Config1T2C
	Config2T2C = core.Config2T2C
)
