package core

import "parade/internal/sim"

// Functional options for the work-sharing and tasking surface: one
// directive, orthogonal clauses — the OpenMP shape — instead of one
// method per clause combination. ForCost and ForCostNowait remain as
// allocation-free spellings for the app kernels' inner loops. The task
// constructs (Task, Taskloop, Target) take the same shape: loop-flavored
// clauses are ForTaskOption values accepted by both surfaces, and the
// task-only clauses (depend, priority, task naming, target data maps)
// are TaskOption values.

// ScheduleKind selects how a work-sharing loop distributes iterations
// across the team (the schedule clause).
type ScheduleKind int

const (
	// Static is the paper's schedule (§4.3): contiguous per-thread
	// blocks in gid order, so threads of one node work on adjacent data.
	Static ScheduleKind = iota
	// Dynamic serves fixed-size chunks first-come-first-served from a
	// chunk server on the master node (§8 extension).
	Dynamic
	// Guided serves exponentially shrinking chunks, floored at the
	// configured minimum (§8 extension).
	Guided
)

func (k ScheduleKind) String() string {
	switch k {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return "?"
	}
}

// forConfig is the resolved clause set of one For/Taskloop instance.
type forConfig struct {
	kind    ScheduleKind
	chunk   int // dynamic chunk / guided minimum / taskloop grainsize
	nowait  bool
	perIter sim.Duration
	name    string
}

// taskConfig is the resolved clause set of one Task/Taskloop/Target
// instance: the loop-shaped clauses plus the task-graph clauses.
type taskConfig struct {
	forConfig
	priority int
	taskName string
	deps     []depClause
	maps     []MapSpec
}

// depClause is one handle of a WithDepend clause with its kind.
type depClause struct {
	kind DepKind
	h    DepHandle
}

// ForOption configures Thread.For. Every ForOption this package provides
// is a ForTaskOption, so the same value also configures the tasking
// constructs.
type ForOption interface {
	applyFor(*forConfig)
}

// TaskOption configures Thread.Task, Thread.Taskloop and Thread.Target.
type TaskOption interface {
	applyTask(*taskConfig)
}

// ForTaskOption is a clause valid on both surfaces: the work-sharing
// loops (For) and the tasking constructs (Task, Taskloop, Target). The
// loop-shaped clauses — schedule, nowait, iteration cost, site name,
// grainsize — are ForTaskOptions.
type ForTaskOption struct {
	f func(*forConfig)
}

func (o ForTaskOption) applyFor(c *forConfig)   { o.f(c) }
func (o ForTaskOption) applyTask(c *taskConfig) { o.f(&c.forConfig) }

// taskOption is a task-only clause.
type taskOption func(*taskConfig)

func (o taskOption) applyTask(c *taskConfig) { o(c) }

// WithSchedule selects the loop schedule. chunk is the fixed chunk size
// under Dynamic, the minimum chunk under Guided, and is ignored under
// Static (the static partition is always one block per thread); chunk
// values below 1 are treated as 1.
func WithSchedule(kind ScheduleKind, chunk int) ForTaskOption {
	return ForTaskOption{func(c *forConfig) {
		c.kind = kind
		c.chunk = chunk
	}}
}

// Nowait elides the loop's implicit trailing barrier (the nowait
// clause). The caller takes responsibility for the missing flush, as in
// OpenMP.
func Nowait() ForTaskOption {
	return ForTaskOption{func(c *forConfig) { c.nowait = true }}
}

// WithIterCost charges d of virtual processor time per iteration, so the
// loop's computation contends with the communication thread for CPUs.
// Static loops batch the charge (about computeBatch per Compute call);
// dynamic and guided loops charge once per served chunk.
func WithIterCost(d sim.Duration) ForTaskOption {
	return ForTaskOption{func(c *forConfig) { c.perIter = d }}
}

// WithName names the loop site. Dynamic and guided loops key their
// chunk-server instance by site name and per-thread round, so a name is
// required when distinct loops must not share an instance across
// threads arriving in different textual order; unnamed sites are
// auto-numbered in per-thread arrival order, which is safe under the
// SPMD rule that every team thread reaches the same sites in the same
// order. Taskloop uses the name only for tracing.
func WithName(name string) ForTaskOption {
	return ForTaskOption{func(c *forConfig) { c.name = name }}
}

// WithGrainsize sets Taskloop's chunk length: the loop is split into
// tasks of up to g consecutive iterations. For ignores it under the
// static schedule and treats it as the chunk size otherwise. Values
// below 1 select the default grain.
func WithGrainsize(g int) ForTaskOption {
	return ForTaskOption{func(c *forConfig) { c.chunk = g }}
}

// DepKind classifies one depend clause: how the task accesses the
// handles it names.
type DepKind int

const (
	// In declares the task a reader of the handle: it runs after the
	// handle's last Out/InOut writer.
	In DepKind = iota
	// Out declares the task a writer: it runs after the handle's last
	// writer and after every reader registered since.
	Out
	// InOut declares the task both: ordering is identical to Out.
	InOut
)

func (k DepKind) String() string {
	switch k {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return "?"
	}
}

// depHandleKind discriminates DepHandle's three constructors.
type depHandleKind int8

const (
	depHandleAddr depHandleKind = iota
	depHandleName
	depHandleTask
)

// DepHandle names one dependence object of a depend clause. Handles are
// comparable values: two handles made by the same constructor from the
// same argument are the same object. The three constructors are DepAddr
// (a shared-memory address, the OpenMP list-item form), DepName (an
// abstract named object, for dependences not tied to one address), and
// DepTask (a sibling task registered with WithTaskName — completion
// ordering regardless of data).
type DepHandle struct {
	kind depHandleKind
	addr int
	name string
}

// DepAddr names a shared-memory address as a dependence object (the
// OpenMP `depend(in: a[i])` form). Tasks conflict when they name the
// same address; distinct addresses of the same array are independent
// objects.
func DepAddr(addr int) DepHandle { return DepHandle{kind: depHandleAddr, addr: addr} }

// DepName names an abstract dependence object. Use it to serialize tasks
// around a resource that has no single address (a file, a phase, a whole
// array).
func DepName(name string) DepHandle { return DepHandle{kind: depHandleName, name: name} }

// DepTask names a sibling task by the name it registered (or will
// register) with WithTaskName: the depending task runs only after that
// task completes, regardless of DepKind. A reference to a name no
// sibling ever registers resolves vacuously at the context's end — the
// enclosing Taskwait for root tasks, the parent task's completion for
// nested ones. A reference that makes the named set circular is
// rejected with *TaskCycleError.
func DepTask(name string) DepHandle { return DepHandle{kind: depHandleTask, name: name} }

// WithDepend declares the task's dependences of one kind on the given
// handles (the depend clause). Repeat the option to mix kinds. Duplicate
// handles within one task are deduplicated; ordering between tasks
// follows their spawn order in the spawning context (OpenMP sibling-task
// semantics), so the graph is identical across steal schedules, fault
// profiles, and lane counts.
func WithDepend(kind DepKind, handles ...DepHandle) TaskOption {
	return taskOption(func(c *taskConfig) {
		for _, h := range handles {
			c.deps = append(c.deps, depClause{kind: kind, h: h})
		}
	})
}

// WithTaskName registers the task under name in its spawning context, so
// later siblings can order themselves after it with DepTask(name). Names
// are scoped to the spawning context (one thread's root tasks between
// joins, or one parent task's children) and reset at each Taskwait.
func WithTaskName(name string) TaskOption {
	return taskOption(func(c *taskConfig) { c.taskName = name })
}

// WithPriority hints the scheduler to prefer this task: a node's threads
// pop higher-priority tasks first, and thieves steal the lowest-priority
// work. Equal priorities keep the default order (newest-first locally,
// oldest-first for thieves); the default priority is 0, and priority
// never overrides dependence order.
func WithPriority(p int) TaskOption {
	return taskOption(func(c *taskConfig) { c.priority = p })
}

// MapDir is the direction of one Target data-mapping clause.
type MapDir int

const (
	// MapTo pushes the mapped pages to the device before the task body
	// runs (the `map(to: ...)` clause): one eager batched prefetch
	// replaces the demand faults the body would otherwise take.
	MapTo MapDir = iota
	// MapFrom returns the mapped pages to the spawning node after the
	// task completes (the `map(from: ...)` clause): the pages are queued
	// for the spawner's next barrier-time refresh batch.
	MapFrom
	// MapToFrom combines both directions (the `map(tofrom: ...)` clause).
	MapToFrom
)

func (d MapDir) String() string {
	switch d {
	case MapTo:
		return "to"
	case MapFrom:
		return "from"
	case MapToFrom:
		return "tofrom"
	default:
		return "?"
	}
}

// Mappable is a shared-memory object that can appear in a map clause:
// anything that can name its page span. F64Array and I64Array are
// Mappable.
type Mappable interface {
	Pages() []int
}

// MapSpec is one resolved map clause: a direction and the page set it
// covers.
type MapSpec struct {
	Dir   MapDir
	Pages []int
}

// WithMap attaches a data-mapping clause to a Target task: the pages of
// the given objects move eagerly in the clause's direction instead of
// demand-faulting through the DSM. Only Target interprets maps; on
// plain tasks the option is accepted and ignored (a plain task has no
// device to map onto).
func WithMap(dir MapDir, objs ...Mappable) TaskOption {
	return taskOption(func(c *taskConfig) {
		var pages []int
		for _, o := range objs {
			pages = append(pages, o.Pages()...)
		}
		c.maps = append(c.maps, MapSpec{Dir: dir, Pages: pages})
	})
}
