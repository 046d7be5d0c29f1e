// Package stats is the one place a simulated run's protocol and traffic
// events are counted. A run owns one Registry: a Counters row per node,
// always on, incremented through At(node) from that node's context, and
// a whole-run total that Fold derives as the sum of the rows. Every
// other view — the report line, the per_node objects of the metrics
// JSON, the fleet's parade_sim_<name>_total series, the table in
// OBSERVABILITY.md — is generated from the rows and the field tags
// below, so a new counter is one field and one increment.
//
// The simulation kernel runs one simulated process at a time, so plain
// integer fields are safe without atomics.
package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Counters is the counter vocabulary: a flat struct of int64 tallies,
// one row per node in a Registry and one more for the whole run. Each
// field is named once, by its json tag: the key of Map and String, of
// the per_node objects in the metrics JSON (omitempty there keeps the
// rarely non-zero groups out of fault-free dumps) and of the fleet's
// Prometheus series. The at tag says which node's row an event lands in,
// when which runs can make it non-zero (absent: any run) and help what
// it counts; the OBSERVABILITY.md table is generated from all four
// (TestObservabilityTable).
type Counters struct {
	// Network traffic.
	Messages     int64 `json:"msgs_sent" at:"sender" help:"frames put on the wire, retransmissions included"`
	Bytes        int64 `json:"bytes_sent" at:"sender" help:"modeled wire bytes of those frames, headers included"`
	LocalDeliver int64 `json:"local_deliveries" at:"sender" help:"same-node deliveries that bypassed the NIC"`

	// MPI-level operations.
	Sends       int64 `json:"mpi_sends,omitempty" at:"sending rank" help:"point-to-point sends, including those inside collectives"`
	Bcasts      int64 `json:"mpi_bcasts,omitempty" at:"each rank" help:"broadcasts entered"`
	Allreduces  int64 `json:"mpi_allreduces,omitempty" at:"each rank" help:"allreduces entered"`
	MPIBarrier  int64 `json:"mpi_barriers,omitempty" at:"each rank" help:"MPI barriers entered"`
	Collectives int64 `json:"collectives" at:"each rank" help:"passes through any MPI collective (the collective histogram's count)"`

	// DSM protocol activity.
	ReadFaults     int64 `json:"read_faults" at:"faulting node" help:"read access faults"`
	WriteFaults    int64 `json:"write_faults" at:"faulting node" help:"write access faults"`
	FetchesIssued  int64 `json:"page_fetches_issued" at:"requester" help:"page requests sent to a home: demand faults, map(to) prefetches and post-barrier refreshes"`
	PageFetches    int64 `json:"page_fetches_served" at:"home" help:"full-page transfers served, home to requester"`
	TwinsCreated   int64 `json:"twins" at:"writer" help:"twins taken on the first write of an interval"`
	DiffsCreated   int64 `json:"diffs_created" at:"flusher" help:"diffs made during flushes"`
	DiffBytes      int64 `json:"diff_bytes" at:"flusher" help:"wire bytes of those diffs"`
	DiffsApplied   int64 `json:"diffs_applied" at:"home" help:"diffs merged into the master copy"`
	Invalidations  int64 `json:"invalidations" at:"invalidated node" help:"pages invalidated by write notices"`
	WriteNotices   int64 `json:"write_notices,omitempty" at:"master" help:"write notices gathered from barrier arrivals"`
	HomeMigrations int64 `json:"home_migrations,omitempty" at:"master" help:"barrier-time home changes"`
	Barriers       int64 `json:"sdsm_barriers" at:"master" help:"SDSM global barriers completed (per-node passes: the barrier_wait histogram)"`

	// Protocol policy engine.
	PolicyReclass       int64 `json:"policy_reclass,omitempty" at:"master" when:"adaptive policy" help:"classifier class changes applied at barriers"`
	PolicyPushes        int64 `json:"policy_pushes,omitempty" at:"master" when:"update or adaptive policy" help:"depart entries sent with update propagation"`
	PolicyRefreshes     int64 `json:"policy_refreshes,omitempty" at:"refreshing node" when:"update or adaptive policy, or map(from)" help:"pages eagerly re-fetched after a barrier"`
	PolicyHomeOverrides int64 `json:"policy_overrides,omitempty" at:"master" when:"adaptive policy" help:"home elections that differ from the paper's rule"`

	// Lock manager (conventional SDSM path).
	LockRequests int64 `json:"lock_requests" at:"requester" help:"lock acquires issued, cached re-acquires included"`
	LockWaits    int64 `json:"lock_waits" at:"manager" help:"requests that found the lock held and queued at its manager"`

	// Hybrid (message-passing) path.
	HybridCriticals  int64 `json:"hybrid_criticals,omitempty" at:"executing node" when:"hybrid mode" help:"critical rounds served by collectives"`
	HybridSingles    int64 `json:"hybrid_singles,omitempty" at:"master" when:"hybrid mode" help:"singles served by a broadcast"`
	HybridReductions int64 `json:"hybrid_reductions,omitempty" at:"each node" when:"hybrid mode" help:"reduction clauses served by allreduce"`
	HybridAtomics    int64 `json:"hybrid_atomics,omitempty" at:"executing node" when:"hybrid mode" help:"atomics served by collectives"`
	Directives       int64 `json:"directives" at:"executing node" help:"synchronization directives executed, per thread (the directive histogram's count)"`

	// Tasking runtime and its work-stealing scheduler.
	TasksSpawned     int64 `json:"task_spawned,omitempty" at:"spawning node" when:"tasking" help:"tasks pushed onto a node deque"`
	TasksExecuted    int64 `json:"task_executed,omitempty" at:"executing node" when:"tasking" help:"tasks run to completion"`
	TasksStolen      int64 `json:"task_stolen,omitempty" at:"thief" when:"tasking" help:"tasks that moved nodes through a steal"`
	StealRequests    int64 `json:"steal_requests,omitempty" at:"thief" when:"tasking" help:"steal round trips initiated"`
	StealHits        int64 `json:"steal_hits,omitempty" at:"thief" when:"tasking" help:"steal requests that returned a task"`
	StealMisses      int64 `json:"steal_misses,omitempty" at:"thief" when:"tasking" help:"steal requests that found the victim empty"`
	TaskDepsResolved int64 `json:"task_deps_resolved,omitempty" at:"origin node" when:"task dependences" help:"predecessor edges retired by the dependence resolver"`
	TasksReleased    int64 `json:"task_released,omitempty" at:"origin node" when:"task dependences" help:"dependence-held tasks released into a deque"`

	// Reliability sublayer.
	AcksSent       int64 `json:"rel_acks_sent,omitempty" at:"receiver" when:"fault plane" help:"cumulative acks put on the control channel"`
	Timeouts       int64 `json:"rel_timeouts,omitempty" at:"sender" when:"fault plane" help:"retransmit timers that fired on unacked frames"`
	Retransmits    int64 `json:"rel_retransmits,omitempty" at:"sender" when:"fault plane" help:"data frames re-injected after a timeout"`
	DupsSuppressed int64 `json:"rel_dups_suppressed,omitempty" at:"receiver" when:"fault plane" help:"arrivals discarded as duplicates"`

	// Fault plane injection tallies (what the chaos profile actually did).
	InjectedDrops  int64 `json:"faults_dropped,omitempty" at:"sender of the lost frame" when:"fault plane" help:"data or ack frames lost on the wire"`
	InjectedDups   int64 `json:"faults_duplicated,omitempty" at:"sender" when:"fault plane" help:"data frames delivered twice"`
	InjectedDelays int64 `json:"faults_delayed,omitempty" at:"sender" when:"fault plane" help:"data frames held back for reordering"`

	// Crash-stop faults and the recovery protocol above them.
	Crashes        int64 `json:"crash_injected,omitempty" at:"crashed node" when:"crash plan" help:"node crash events injected"`
	NodeRestarts   int64 `json:"crash_restarts,omitempty" at:"restarted node" when:"crash plan" help:"crashed nodes brought back"`
	PeerDowns      int64 `json:"rel_peer_downs,omitempty" at:"observer" when:"crash plan" help:"links that exhausted their retry budget"`
	CkptMsgs       int64 `json:"ckpt_msgs,omitempty" at:"shipping node" when:"crash plan" help:"checkpoint messages shipped to buddy nodes"`
	CkptBytes      int64 `json:"ckpt_bytes,omitempty" at:"shipping node" when:"crash plan" help:"payload bytes of checkpoint traffic"`
	Recoveries     int64 `json:"recovery_runs,omitempty" at:"master" when:"crash plan" help:"recovery protocol executions"`
	ResentBundles  int64 `json:"recovery_resent_bundles,omitempty" at:"resending node" when:"crash plan" help:"diff bundles resent to a restarted node"`
	Refetches      int64 `json:"recovery_refetches,omitempty" at:"requester" when:"crash plan" help:"stuck page fetches reissued during recovery"`
	ReclaimedLocks int64 `json:"recovery_reclaimed_locks,omitempty" at:"master" when:"crash plan" help:"token recalls re-sent to a restarted holder"`
	PagesRestored  int64 `json:"recovery_pages_restored,omitempty" at:"restored node" when:"crash plan" help:"pages reinstalled from a buddy mirror"`

	// Processor contention.
	CPUWaitNs int64 `json:"cpu_wait_ns" at:"queueing node" help:"virtual time runnable processes spent queued for a busy CPU"`
}

// names is the name table, read once from the json tags; names[i] names
// struct field i.
var names = func() []string {
	t := reflect.TypeOf(Counters{})
	out := make([]string, t.NumField())
	for i := range out {
		out[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return out
}()

// Each calls fn with every counter's name and value, in struct order.
func (c *Counters) Each(fn func(name string, v int64)) {
	v := reflect.ValueOf(c).Elem()
	for i, name := range names {
		fn(name, v.Field(i).Int())
	}
}

// Add accumulates o into c field-wise.
func (c *Counters) Add(o *Counters) {
	cv := reflect.ValueOf(c).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() + ov.Field(i).Int())
	}
}

// Map returns the non-zero counters keyed by name, for reports.
func (c *Counters) Map() map[string]int64 {
	m := map[string]int64{}
	c.Each(func(name string, v int64) {
		if v != 0 {
			m[name] = v
		}
	})
	return m
}

// String renders the non-zero counters in a stable order.
func (c *Counters) String() string {
	m := c.Map()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// Registry is one run's counters: a row per node and the whole-run
// total. The network creates it (netsim.New, the first layer built) and
// every other layer takes it from there, so a run has exactly one.
type Registry struct {
	total *Counters
	rows  []Counters
}

// NewRegistry creates the rows for nodes nodes; Fold writes their sum
// into total.
func NewRegistry(nodes int, total *Counters) *Registry {
	return &Registry{total: total, rows: make([]Counters, nodes)}
}

// At returns node's row; a node out of range is a bug at the calling
// site.
func (r *Registry) At(node int) *Counters { return &r.rows[node] }

// Rows returns the per-node rows (the live slice, not a copy).
func (r *Registry) Rows() []Counters { return r.rows }

// Total returns the whole-run counters Fold maintains.
func (r *Registry) Total() *Counters { return r.total }

// Fold sets the total to the sum of the rows and returns it. The rows
// are kept, so folding again (after more events, or twice) is harmless.
// Call with the simulation quiescent.
func (r *Registry) Fold() *Counters {
	*r.total = Counters{}
	for i := range r.rows {
		r.total.Add(&r.rows[i])
	}
	return r.total
}
