package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"parade/internal/obs"
	"parade/internal/stats"
)

// Metrics is the service-side registry behind /metrics: job and batch
// counters, queue gauges, cache statistics, a per-job host-latency
// histogram, and the cumulative simulation activity of every executed
// job — the per-run internal/obs metrics folded into service totals.
// obs.Histogram is the histogram implementation here too, so the
// Prometheus rendering shares the simulator's log2 bucket scheme.
//
// Metrics is safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	jobs       map[string]int64 // by status: ok, invalid, error
	cachedJobs int64
	batches    int64
	rejected   int64 // batches refused with 429

	queued   int
	inFlight int

	jobLatency obs.Histogram // host ns per executed job

	// WAL replay accounting, set once per process start by WALReplayDone.
	walReplayRecords   int64
	walReplayTruncated int64
	walReplayHist      obs.Histogram // host ns per replay

	// Cumulative simulation activity across all executed jobs, folded
	// from each run's counters and histograms.
	simCounters map[string]int64
	simHists    map[string]*obs.Histogram
	simHistUnit map[string]string
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobs:        map[string]int64{},
		simCounters: map[string]int64{},
		simHists:    map[string]*obs.Histogram{},
		simHistUnit: map[string]string{},
	}
}

// JobDone tallies one finished job.
func (m *Metrics) JobDone(status string, cached bool, hostNs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[status]++
	if cached {
		m.cachedJobs++
		return
	}
	if status == StatusOK || status == StatusError {
		m.jobLatency.Observe(hostNs)
	}
}

// BatchDone tallies one batch admission outcome.
func (m *Metrics) BatchDone(rejected bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	if rejected {
		m.rejected++
	}
}

// SetQueue records the pool gauges.
func (m *Metrics) SetQueue(queued, inFlight int) {
	m.mu.Lock()
	m.queued, m.inFlight = queued, inFlight
	m.mu.Unlock()
}

// WALReplayDone records one startup replay of the durable result store.
func (m *Metrics) WALReplayDone(rep WALReplay) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walReplayRecords += int64(rep.Records)
	m.walReplayTruncated += rep.TruncatedBytes
	m.walReplayHist.Observe(rep.Elapsed.Nanoseconds())
}

// FoldRun folds one executed run's observability metrics into the
// service totals: every counter of the run (its per-node rows, which sum
// to Report.Counters) added to a parade_sim_<name>_total series named
// by the stats.Counters field tags, and every non-empty latency/size
// histogram merged into a parade_sim_<name> histogram.
func (m *Metrics) FoldRun(run *obs.Metrics) {
	if run == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var total stats.Counters
	for n := 0; n < run.Nodes(); n++ {
		row := run.Node(n)
		total.Add(&row)
	}
	total.Each(func(name string, v int64) { m.simCounters[name] += v })
	for id := 0; id < obs.NumHists; id++ {
		h := run.Hist(id)
		if h.Count == 0 {
			continue
		}
		name := obs.HistName(id)
		agg, ok := m.simHists[name]
		if !ok {
			agg = &obs.Histogram{}
			m.simHists[name] = agg
			unit := "ns"
			if name == "diff_size" {
				unit = "bytes"
			}
			m.simHistUnit[name] = unit
		}
		agg.Merge(&h)
	}
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). cache may be nil when the service runs
// without a cache; exec is the Executor's counter snapshot (executions
// is the cache-skip probe); wal is the zero value when the service runs
// without a durable result store.
func (m *Metrics) WritePrometheus(w io.Writer, cache *Cache, exec ExecStats, wal WALStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("parade_fleet_queue_depth", "Jobs admitted and waiting for a worker.", float64(m.queued))
	gauge("parade_fleet_in_flight", "Jobs currently executing.", float64(m.inFlight))

	fmt.Fprintf(w, "# HELP parade_fleet_jobs_total Finished jobs by status.\n# TYPE parade_fleet_jobs_total counter\n")
	for _, status := range Statuses() {
		fmt.Fprintf(w, "parade_fleet_jobs_total{status=%q} %d\n", status, m.jobs[status])
	}
	counter("parade_fleet_jobs_cached_total", "Jobs served from the dedupe cache without execution.", m.cachedJobs)
	counter("parade_fleet_batches_total", "Batches received.", m.batches)
	counter("parade_fleet_batches_rejected_total", "Batches refused with 429 (queue full).", m.rejected)
	counter("parade_fleet_executions_total", "Simulations actually executed (the cache-skip probe).",
		exec.Executions)
	counter("parade_fleet_jobs_retried_total", "Job attempts repeated after a recovered panic.", exec.Retries)
	counter("parade_fleet_jobs_panicked_total", "Jobs whose attempts exhausted on panics.", exec.Panics)
	counter("parade_fleet_jobs_canceled_total", "Jobs canceled by deadline or cancellation hook.", exec.Cancels)
	counter("parade_fleet_jobs_quarantined_total", "Jobs refused because their config is quarantined.", exec.Quarantined)

	counter("parade_fleet_wal_appends_total", "Results durably appended to the WAL.", wal.Appends)
	counter("parade_fleet_wal_append_errors_total", "WAL append failures (result served but not durable).", wal.AppendErrors)
	counter("parade_fleet_wal_compactions_total", "WAL rewrites to one record per fingerprint.", wal.Compactions)
	counter("parade_fleet_wal_replayed_records_total", "Valid WAL records replayed into the cache at startup.", m.walReplayRecords)
	counter("parade_fleet_wal_replay_truncated_bytes_total", "Corrupt WAL tail bytes truncated at startup.", m.walReplayTruncated)
	if m.walReplayHist.Count > 0 {
		writeHist(w, "parade_fleet_wal_replay_latency_seconds", "Host time to replay the WAL at startup.",
			&m.walReplayHist, 1e-9)
	}

	if cache != nil {
		cs := cache.Stats()
		counter("parade_fleet_cache_hits_total", "Dedupe cache hits.", cs.Hits)
		counter("parade_fleet_cache_misses_total", "Dedupe cache misses.", cs.Misses)
		counter("parade_fleet_cache_evictions_total", "LRU evictions.", cs.Evictions)
		counter("parade_fleet_cache_collisions_total", "Fingerprint collisions caught by the canonical-string guard.", cs.Collisions)
		gauge("parade_fleet_cache_entries", "Resident cache entries.", float64(cs.Len))
		ratio := 0.0
		if cs.Hits+cs.Misses > 0 {
			ratio = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		gauge("parade_fleet_cache_hit_ratio", "Hits over lookups since start.", ratio)
	}

	writeHist(w, "parade_fleet_job_latency_seconds", "Host execution time per job (cache hits excluded).",
		&m.jobLatency, 1e-9)

	counters := make([]string, 0, len(m.simCounters))
	for name := range m.simCounters {
		counters = append(counters, name)
	}
	sort.Strings(counters)
	const simHelp = "Cumulative simulated-cluster activity across executed jobs (internal/stats)."
	for _, name := range counters {
		counter("parade_sim_"+name+"_total", simHelp, m.simCounters[name])
		if name == "page_fetches_issued" {
			// Legacy alias: the series this counter was published under
			// before the name table split it into issued and served.
			counter("parade_sim_page_fetches_total", simHelp+" Legacy alias of parade_sim_page_fetches_issued_total.",
				m.simCounters[name])
		}
	}

	hists := make([]string, 0, len(m.simHists))
	for name := range m.simHists {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		scale := 1e-9
		promName := "parade_sim_" + name + "_seconds"
		if m.simHistUnit[name] == "bytes" {
			scale = 1
			promName = "parade_sim_" + name + "_bytes"
		}
		writeHist(w, promName,
			"Merged per-run internal/obs histogram (virtual time for latencies).",
			m.simHists[name], scale)
	}
}

// writeHist renders one obs.Histogram as a Prometheus histogram: the
// log2 bucket uppers become cumulative le bounds scaled by scale.
func writeHist(w io.Writer, name, help string, h *obs.Histogram, scale float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLe(float64(obs.BucketUpper(i))*scale), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.Sum)*scale)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

func formatLe(v float64) string { return fmt.Sprintf("%g", v) }
