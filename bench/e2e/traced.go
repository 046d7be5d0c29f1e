package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"parade/internal/core"
	"parade/internal/obs"
)

// perLayer lists the per-layer metrics of the traced run, named
// <layer>.<metric> after internal/<layer>. They are never gated.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Host-time share by layer, from the CPU profile; they sum to one.
	for _, l := range layers {
		add("ratio", "lower", l+".host_share")
	}
	add("ratio", "lower", shareGC, shareSched, shareBench)

	// Exact counts per pass.
	add("count", "lower", "netsim.msgs")
	add("KiB", "lower", "netsim.kb")
	add("count", "lower", "netsim.local_deliver", "netsim.retransmits", "netsim.timeouts", "netsim.dups_suppressed",
		"mpi.sends", "mpi.bcasts", "mpi.allreduces", "mpi.barriers",
		"hlrc.read_faults", "hlrc.write_faults", "hlrc.page_fetches", "hlrc.invalidations", "hlrc.write_notices",
		"hlrc.home_migrations", "hlrc.barriers", "hlrc.lock_requests")
	add("ratio", "lower", "hlrc.lock_wait_ratio")
	add("count", "lower", "hlrc.policy_reclass", "hlrc.policy_pushes", "hlrc.policy_refreshes",
		"dsm.twins", "dsm.diffs_created", "dsm.diffs_applied")
	add("KiB", "lower", "dsm.diff_kb")
	add("count", "lower", "core.hybrid_criticals", "core.hybrid_singles", "core.hybrid_reductions", "core.hybrid_atomics",
		"core.tasks_executed", "core.tasks_stolen")
	add("ratio", "higher", "core.steal_hit_ratio")
	add("count", "lower", "core.task_deps_resolved", "sim.lane_events", "sim.lane_windows")
	add("ratio", "higher", "sim.lane_util")
	add("ns", "lower", "sim.lane_sync_mean_ns")
	add("count", "lower", "fleet.executions")
	add("ratio", "higher", "fleet.cache_hit_ratio")
	add("count", "lower", "fleet.cache_evictions", "fleet.wal_appends", "fleet.wal_append_errors")
	// The paper's own metric; exact, so the goldens gate it rather than
	// a bound.
	add("ms", "lower", "sim.virt_ms_per_pass")

	// Layer drivers: host time per operation.
	add("ns", "lower", "sim.event_ns", "sim.switch_ns")
	add("us", "lower", "sim.spawn_us")
	add("ns", "lower", "sim.lane_window_ns", "netsim.send_ns", "netsim.reliable_send_ns")
	add("us", "lower", "mpi.allreduce_us", "mpi.bcast_us", "mpi.barrier_us")
	add("ns", "lower", "dsm.diff_sparse_ns", "dsm.diff_dense_ns", "dsm.apply_ns")
	add("us", "lower", "dsm.table_new_us", "hlrc.new_us", "hlrc.fingerprint_us")
	add("ms", "lower", "core.run_empty_ms")
	add("us", "lower", "core.parallel_us", "core.barrier_us", "core.critical_us", "core.fault_us",
		"core.lock_us", "core.task_us", "core.taskdep_us")
	add("ns", "lower", "fleet.canonical_ns", "fleet.cache_get_ns", "fleet.cache_put_ns")
	add("us", "lower", "fleet.wal_append_us_p50", "fleet.wal_append_us_p99")
	add("ms", "lower", "fleet.wal_replay_ms_per_1k", "fleet.exec_run_ms")
	add("us", "lower", "fleet.http_us_per_hit")

	// Ratios, each with its base in the name's second half.
	add("ratio", "lower", "sim.mp_penalty", "sim.lane1_over_legacy")
	add("ratio", "higher", "sim.laneN_speedup")
	add("ratio", "lower", "obs.overhead_ratio", "bench.trace_overhead_ratio")
	add("us", "lower", "bench.host_us_per_msg", "bench.pass_self_us")
	// Demoted from the end-to-end list: the untraced passes' tail.
	add("ms", "lower", "bench.pass_ms_p90")
	return defs
}

// Shares of a traced run's time budget. The probes and drivers after
// them take a few seconds of their own whatever the budget.
const (
	tracedDefaultSeconds = 15
	tracedShare          = 0.40
	untracedShare        = 0.20
)

// runTraced is the traced run: the workload's passes under a CPU
// profile with Config.Obs attached and spans recorded, then the same
// passes untraced for the tracing overhead, then the probes and layer
// drivers. It produces every per-layer metric.
func runTraced(w workload, e env, seconds float64, traceOut string) (runResult, error) {
	procs := w.gomaxprocs(runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	if seconds <= 0 {
		seconds = tracedDefaultSeconds
	}
	passes := 0
	if e.quick {
		passes, seconds = 1, 0
	}
	tr, root := newTracer(fmt.Sprintf("%s-%d", w.name, e.seed))

	te := e
	te.traced = true
	inst, err := setUp(w, te, root)
	if err != nil {
		return runResult{}, err
	}
	serve, _ := inst.(*serveInstance)
	var before fleetStats
	if serve != nil {
		before = serve.stats()
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		inst.close()
		return runResult{}, err
	}
	t := timePasses(inst, root, 0, passes, seconds*tracedShare)
	pprof.StopCPUProfile()

	// The fleet counts read zero unless a service ran.
	values := map[string]float64{"fleet.executions": 0, "fleet.cache_hit_ratio": 0, "fleet.cache_evictions": 0,
		"fleet.wal_appends": 0, "fleet.wal_append_errors": 0}
	counts := t.counts
	countPasses := len(t.passMs)
	if serve != nil {
		after := serve.stats()
		n := float64(len(t.passMs))
		lookups := float64(after.cache.Hits + after.cache.Misses - before.cache.Hits - before.cache.Misses)
		values["fleet.executions"] = float64(after.exec.Executions-before.exec.Executions) / n
		values["fleet.cache_hit_ratio"] = ratio(float64(after.cache.Hits-before.cache.Hits), lookups)
		values["fleet.cache_evictions"] = float64(after.cache.Evictions-before.cache.Evictions) / n
		values["fleet.wal_appends"] = float64(after.wal.Appends-before.wal.Appends) / n
		values["fleet.wal_append_errors"] = float64(after.wal.AppendErrors-before.wal.AppendErrors) / n
		if counts, err = serve.replayCounts(); err != nil {
			inst.close()
			return runResult{}, err
		}
		countPasses = 1
	}
	if err := inst.close(); err != nil {
		return runResult{}, err
	}
	for name, v := range counts.perPass(countPasses) {
		values[name] = v
	}
	values["sim.virt_ms_per_pass"] = float64(t.virtNs) / 1e6
	msgs := values["netsim.msgs"] * float64(len(t.passMs))
	values["bench.host_us_per_msg"] = ratio(float64(t.wall.Nanoseconds())/1e3, msgs)

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return runResult{}, err
	}
	for name, v := range hostShares(samples) {
		values[name] = v
	}

	// The same passes with tracing off; the ratio of the medians is what
	// the profile, the recorder and the spans cost.
	plain, err := setUp(w, e, spanCtx{})
	if err != nil {
		return runResult{}, err
	}
	ut := timePasses(plain, spanCtx{}, len(t.passMs), passes, seconds*untracedShare)
	if err := plain.close(); err != nil {
		return runResult{}, err
	}
	values["bench.trace_overhead_ratio"] = ratio(median(t.passMs), median(ut.passMs))
	values["bench.pass_ms_p90"], _ = quantile(ut.passMs, 0.9)

	probes, err := runProbes(e, root)
	if err != nil {
		return runResult{}, err
	}
	runtime.GOMAXPROCS(procs)
	drivers, err := runDrivers(e, root)
	if err != nil {
		return runResult{}, err
	}
	for _, m := range []map[string]float64{probes, drivers} {
		for name, v := range m {
			values[name] = v
		}
	}
	root.end()
	values["bench.pass_self_us"] = meanSelfUs(tr.spans, "pass")
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return runResult{}, err
		}
	}

	res := runResult{
		Workload: w.name, Seed: e.seed, Traced: true, GOMAXPROCS: procs,
		Passes: len(t.passMs), Cells: t.cells + ut.cells, Failed: t.failed + ut.failed, FirstFail: t.firstFail,
		Metrics: map[string]metricValue{},
	}
	if res.FirstFail == "" {
		res.FirstFail = ut.firstFail
	}
	var missing []string
	for _, d := range perLayer {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("traced run did not measure: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// probeRounds is how many alternating passes each side of a ratio gets.
const probeRounds = 3

// runProbes measures the kernel and observability ratios. They do not
// depend on the workload: each compares passes over the pages cells (or
// the scale cell) under two settings, alternating, and divides medians.
func runProbes(e env, sc spanCtx) (map[string]float64, error) {
	span := sc.start("probes")
	defer span.end()
	rounds := probeRounds
	if e.quick {
		rounds = 1
	}
	pages, err := pagesCells(0)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	lanesN := upTo4(nproc)

	// variant is one side of a ratio: a cell list, a GOMAXPROCS pin and a
	// change to every cell's configuration.
	type variant struct {
		cells  []simCell
		procs  int
		mutate func(*core.Config)
		ms     []float64
	}
	scale1, err := scaleCells(1)
	if err != nil {
		return nil, err
	}
	scaleN, err := scaleCells(lanesN)
	if err != nil {
		return nil, err
	}
	same := func(*core.Config) {}
	variants := map[string]*variant{
		"base":   {cells: pages, procs: 1, mutate: same},
		"mp":     {cells: pages, procs: nproc, mutate: same},
		"lane1":  {cells: pages, procs: 1, mutate: func(c *core.Config) { c.Lanes = 1 }},
		"obs":    {cells: pages, procs: 1, mutate: func(c *core.Config) { c.Obs = obs.New(c.Nodes) }},
		"scale1": {cells: scale1, procs: lanesN, mutate: same},
		"scaleN": {cells: scaleN, procs: lanesN, mutate: same},
	}
	for r := 0; r < rounds; r++ {
		for _, name := range []string{"base", "mp", "lane1", "obs", "scale1", "scaleN"} {
			v := variants[name]
			runtime.GOMAXPROCS(v.procs)
			vs := span.start("probe:" + name)
			start := time.Now()
			for _, c := range v.cells {
				cfg := c.cfg
				v.mutate(&cfg)
				if _, _, _, err := c.run(cfg); err != nil {
					return nil, fmt.Errorf("probe %s: cell %s: %w", name, c.name, err)
				}
			}
			v.ms = append(v.ms, float64(time.Since(start).Nanoseconds())/1e6)
			vs.end()
		}
	}
	med := func(name string) float64 { return median(variants[name].ms) }
	return map[string]float64{
		"sim.mp_penalty":        ratio(med("mp"), med("base")),
		"sim.lane1_over_legacy": ratio(med("lane1"), med("base")),
		"obs.overhead_ratio":    ratio(med("obs"), med("base")),
		"sim.laneN_speedup":     ratio(med("scale1"), med("scaleN")),
	}, nil
}
