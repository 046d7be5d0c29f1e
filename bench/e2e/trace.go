package main

import (
	"encoding/json"
	"os"
	"reflect"
	"time"

	"parade/internal/core"
	"parade/internal/stats"
)

// span is one timed call the benchmark made: run, setup, pass,
// cell:<name>, http.post, decode, driver:<layer>.<fn>.
type span struct {
	name       string
	parent     int // index of the causing span, -1 for the root
	start, end time.Duration
}

// tracer keeps the spans of one traced run in memory; they are written
// out once, when the run ends. All spans of a run share its id.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
}

// spanCtx is a position in the span tree. The zero value records
// nothing, so untraced runs pass it around at no cost.
type spanCtx struct {
	t  *tracer
	id int
}

func newTracer(runID string) (*tracer, spanCtx) {
	t := &tracer{runID: runID, t0: time.Now()}
	t.spans = append(t.spans, span{name: "run", parent: -1})
	return t, spanCtx{t, 0}
}

// start opens a child span of sc.
func (sc spanCtx) start(name string) spanCtx {
	if sc.t == nil {
		return sc
	}
	sc.t.spans = append(sc.t.spans, span{name: name, parent: sc.id, start: time.Since(sc.t.t0)})
	return spanCtx{sc.t, len(sc.t.spans) - 1}
}

func (sc spanCtx) end() {
	if sc.t != nil {
		sc.t.spans[sc.id].end = time.Since(sc.t.t0)
	}
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover. The benchmark's spans are sequential, so children of one
// span never overlap and their durations simply add.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// meanSelfUs is the mean self time, in microseconds, of the spans named
// name: for "pass", what the benchmark itself costs per pass.
func meanSelfUs(spans []span, name string) float64 {
	self := selfTimes(spans)
	var sum time.Duration
	n := 0
	for i, s := range spans {
		if s.name == name {
			sum += self[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(n)
}

// writeChrome writes the spans as Chrome trace JSON ("X" complete
// events, microsecond timestamps).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "run": t.runID},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerCounts sums the exact protocol counts of the cells it has seen.
type layerCounts struct {
	c stats.Counters
	// Lane engine report (Report.Obs.LaneReport, lane-kernel cells only).
	laneEvents, laneWindows  uint64
	laneBusyNs, laneStallNs  int64
	laneSyncSum, laneSyncCnt int64
}

func (lc *layerCounts) addReport(rep core.Report) {
	addCounters(&lc.c, rep.Counters)
	if rep.Obs == nil {
		return
	}
	laneStats, windows, sync := rep.Obs.LaneReport()
	lc.laneWindows += windows
	for _, ls := range laneStats {
		lc.laneEvents += ls.Events
		lc.laneBusyNs += ls.BusyNs
		lc.laneStallNs += ls.StallNs
	}
	lc.laneSyncSum += sync.Sum
	lc.laneSyncCnt += sync.Count
}

func (lc *layerCounts) add(o *layerCounts) {
	addCounters(&lc.c, o.c)
	lc.laneEvents += o.laneEvents
	lc.laneWindows += o.laneWindows
	lc.laneBusyNs += o.laneBusyNs
	lc.laneStallNs += o.laneStallNs
	lc.laneSyncSum += o.laneSyncSum
	lc.laneSyncCnt += o.laneSyncCnt
}

// addCounters accumulates src into dst field-wise (every field of
// stats.Counters is an int64 tally).
func addCounters(dst *stats.Counters, src stats.Counters) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + s.Field(i).Int())
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perPass turns the summed counts of passes passes into the per-layer
// count metrics: each the mean per pass (exact for the simulation
// workloads, whose passes are identical).
func (lc *layerCounts) perPass(passes int) map[string]float64 {
	n := float64(passes)
	c := lc.c
	per := func(v int64) float64 { return ratio(float64(v), n) }
	return map[string]float64{
		"netsim.msgs":            per(c.Messages),
		"netsim.kb":              per(c.Bytes) / 1024,
		"netsim.local_deliver":   per(c.LocalDeliver),
		"netsim.retransmits":     per(c.Retransmits),
		"netsim.timeouts":        per(c.Timeouts),
		"netsim.dups_suppressed": per(c.DupsSuppressed),

		"mpi.sends":      per(c.Sends),
		"mpi.bcasts":     per(c.Bcasts),
		"mpi.allreduces": per(c.Allreduces),
		"mpi.barriers":   per(c.MPIBarrier),

		"hlrc.read_faults":      per(c.ReadFaults),
		"hlrc.write_faults":     per(c.WriteFaults),
		"hlrc.page_fetches":     per(c.PageFetches),
		"hlrc.invalidations":    per(c.Invalidations),
		"hlrc.write_notices":    per(c.WriteNotices),
		"hlrc.home_migrations":  per(c.HomeMigrations),
		"hlrc.barriers":         per(c.Barriers),
		"hlrc.lock_requests":    per(c.LockRequests),
		"hlrc.lock_wait_ratio":  ratio(float64(c.LockWaits), float64(c.LockRequests)),
		"hlrc.policy_reclass":   per(c.PolicyReclass),
		"hlrc.policy_pushes":    per(c.PolicyPushes),
		"hlrc.policy_refreshes": per(c.PolicyRefreshes),

		"dsm.twins":         per(c.TwinsCreated),
		"dsm.diffs_created": per(c.DiffsCreated),
		"dsm.diffs_applied": per(c.DiffsApplied),
		"dsm.diff_kb":       per(c.DiffBytes) / 1024,

		"core.hybrid_criticals":   per(c.HybridCriticals),
		"core.hybrid_singles":     per(c.HybridSingles),
		"core.hybrid_reductions":  per(c.HybridReductions),
		"core.hybrid_atomics":     per(c.HybridAtomics),
		"core.tasks_executed":     per(c.TasksExecuted),
		"core.tasks_stolen":       per(c.TasksStolen),
		"core.steal_hit_ratio":    ratio(float64(c.StealHits), float64(c.StealRequests)),
		"core.task_deps_resolved": per(c.TaskDepsResolved),

		"sim.lane_events":       ratio(float64(lc.laneEvents), n),
		"sim.lane_windows":      ratio(float64(lc.laneWindows), n),
		"sim.lane_util":         ratio(float64(lc.laneBusyNs), float64(lc.laneBusyNs+lc.laneStallNs)),
		"sim.lane_sync_mean_ns": ratio(float64(lc.laneSyncSum), float64(lc.laneSyncCnt)),
	}
}
