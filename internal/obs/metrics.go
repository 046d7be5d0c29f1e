package obs

import (
	"encoding/json"
	"io"
	"reflect"

	"parade/internal/sim"
	"parade/internal/stats"
)

// Histogram identifiers. All latency histograms are in virtual
// nanoseconds; HistDiffBytes is in bytes.
const (
	HistPageFetch       = iota // fault -> page installed
	HistDiffFlush              // flush start -> last home ack
	HistLockAcquire            // AcquireLock entry -> grant
	HistBarrierWait            // SDSM barrier entry -> departure
	HistDirective              // directive entry -> completion, per thread
	HistCollective             // MPI collective entry -> completion, per rank
	HistCPUWait                // time a runnable proc queued for a busy CPU
	HistDiffBytes              // wire size of each created diff
	HistRetryLatency           // first send -> ack, frames that needed a retransmit
	HistRecoveryLatency        // crash detected -> recovery complete, per execution
	HistStealLatency           // steal request sent -> reply received (hit or miss)
	HistReclassLatency         // interval between a page's successive class changes
	HistWALReplay              // host ns to replay the fleet result WAL at startup
	HistDepWait                // task spawn -> dependence release, held tasks only
	NumHists
)

// histDefs gives each histogram its stable exported name and unit.
var histDefs = [NumHists]struct{ Name, Unit string }{
	HistPageFetch:       {"page_fetch", "ns"},
	HistDiffFlush:       {"diff_flush", "ns"},
	HistLockAcquire:     {"lock_acquire", "ns"},
	HistBarrierWait:     {"barrier_wait", "ns"},
	HistDirective:       {"directive", "ns"},
	HistCollective:      {"collective", "ns"},
	HistCPUWait:         {"cpu_wait", "ns"},
	HistDiffBytes:       {"diff_size", "bytes"},
	HistRetryLatency:    {"retry_latency", "ns"},
	HistRecoveryLatency: {"recovery_latency", "ns"},
	HistStealLatency:    {"steal_latency", "ns"},
	HistReclassLatency:  {"reclass_latency", "ns"},
	HistWALReplay:       {"wal_replay_latency", "ns"},
	HistDepWait:         {"dep_wait_latency", "ns"},
}

// HistName returns the stable name of histogram id (as used in the
// metrics JSON), or "" for an unknown id.
func HistName(id int) string {
	if id < 0 || id >= NumHists {
		return ""
	}
	return histDefs[id].Name
}

// PhaseCounters is the activity attributed to one parallel region (or
// to the serial sections between regions). The *Ns fields are sums of
// the corresponding latency spans, so e.g. BarrierWaitNs/(region
// duration * nodes) is the fraction of node-time spent waiting at
// barriers during that region.
type PhaseCounters struct {
	Fetches       int64 `json:"fetches"`
	FetchWaitNs   int64 `json:"fetch_wait_ns"`
	Flushes       int64 `json:"flushes"`
	FlushWaitNs   int64 `json:"flush_wait_ns"`
	DiffsCreated  int64 `json:"diffs_created"`
	DiffBytes     int64 `json:"diff_bytes"`
	Invalidations int64 `json:"invalidations"`
	Barriers      int64 `json:"sdsm_barriers"`
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
	Locks         int64 `json:"lock_acquires"`
	LockWaitNs    int64 `json:"lock_wait_ns"`
	Collectives   int64 `json:"collectives"`
	CollectiveNs  int64 `json:"collective_ns"`
	Directives    int64 `json:"directives"`
	DirectiveNs   int64 `json:"directive_ns"`
	CPUWaitNs     int64 `json:"cpu_wait_ns"`
	Msgs          int64 `json:"msgs"`
	Bytes         int64 `json:"bytes"`
}

// Phase is the record of one parallel region.
type Phase struct {
	Seq     int           `json:"seq"`
	StartNs sim.Time      `json:"start_ns"`
	EndNs   sim.Time      `json:"end_ns"`
	C       PhaseCounters `json:"counters"`
}

// maxPhases bounds Metrics memory for programs with very many parallel
// regions (e.g. the EPCC-style microbenchmarks): regions past the cap
// fold into the last slot and FoldedPhases counts how many were folded.
const maxPhases = 512

// Metrics is the registry side of a Recorder: latency/size histograms
// and per-parallel-region phase attribution, plus the per-node counter
// rows of the run's stats.Registry (SetNodeCounters). Like the Recorder
// it is written with plain stores — the simulation kernel's
// one-runnable-goroutine invariant is the synchronization.
type Metrics struct {
	nodes []stats.Counters // the run's registry rows (set post-run via SetNodeCounters)
	hist  [NumHists]Histogram

	phases       []Phase
	cur          *Phase // non-nil while inside a parallel region
	serial       PhaseCounters
	foldedPhases int
}

// ph returns the phase-counter set activity should currently charge
// to: the open parallel region, or the serial accumulator between
// regions.
func (m *Metrics) ph() *PhaseCounters {
	if m.cur != nil {
		return &m.cur.C
	}
	return &m.serial
}

// SetNodeCounters attaches the run's per-node counter rows. The runtime
// calls it once after the run with the folded stats.Registry's rows:
// the registry counts every event, this type only presents it.
func (m *Metrics) SetNodeCounters(rows []stats.Counters) { m.nodes = rows }

// Nodes returns the number of nodes with counter rows (0 before the
// run's hand-over).
func (m *Metrics) Nodes() int { return len(m.nodes) }

// Node returns a copy of node n's counters (zero value if out of range).
func (m *Metrics) Node(n int) stats.Counters {
	if n < 0 || n >= len(m.nodes) {
		return stats.Counters{}
	}
	return m.nodes[n]
}

// Hist returns a copy of histogram id (zero value if out of range).
func (m *Metrics) Hist(id int) Histogram {
	if id < 0 || id >= NumHists {
		return Histogram{}
	}
	return m.hist[id]
}

// Phases returns the recorded parallel regions. The returned slice is
// the live backing array; callers must not modify it.
func (m *Metrics) Phases() []Phase { return m.phases }

// Serial returns the activity recorded outside any parallel region.
func (m *Metrics) Serial() PhaseCounters { return m.serial }

// Total returns the whole-run phase-counter aggregate: the serial
// sections plus every parallel region.
func (m *Metrics) Total() PhaseCounters {
	t := m.serial
	for i := range m.phases {
		t.Add(&m.phases[i].C)
	}
	return t
}

func (m *Metrics) beginPhase(now sim.Time, seq int) {
	if len(m.phases) == maxPhases {
		// Fold into the last slot: keep attribution bounded without
		// dropping the totals.
		m.cur = &m.phases[maxPhases-1]
		m.foldedPhases++
		return
	}
	m.phases = append(m.phases, Phase{Seq: seq, StartNs: now})
	m.cur = &m.phases[len(m.phases)-1]
}

func (m *Metrics) endPhase(now sim.Time) {
	if m.cur != nil {
		m.cur.EndNs = now
		m.cur = nil
	}
}

// Add accumulates o into p field-wise (every field is an int64 tally).
func (p *PhaseCounters) Add(o *PhaseCounters) {
	pv := reflect.ValueOf(p).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < pv.NumField(); i++ {
		pv.Field(i).SetInt(pv.Field(i).Int() + ov.Field(i).Int())
	}
}

// LaneStat is the record type of LaneReport: no effect; kept only
// because bench/e2e names it; ROADMAP 1(a) deletes it.
type LaneStat struct {
	Events          uint64
	BusyNs, StallNs int64
}

// LaneReport returns nothing: no effect; kept only because bench/e2e
// names it; ROADMAP 1(a) deletes it.
func (m *Metrics) LaneReport() ([]LaneStat, uint64, Histogram) { return nil, 0, Histogram{} }

// JSON schema for the metrics dump.

type histJSON struct {
	Name    string       `json:"name"`
	Unit    string       `json:"unit"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	Buckets []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

func histToJSON(h *Histogram, name, unit string) histJSON {
	hj := histJSON{
		Name: name, Unit: unit,
		Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		Mean: h.Mean(),
		P50:  h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	for i, n := range h.Buckets {
		if n != 0 {
			hj.Buckets = append(hj.Buckets, bucketJSON{Le: BucketUpper(i), N: n})
		}
	}
	return hj
}

type metricsJSON struct {
	Schema       string           `json:"schema"`
	Nodes        int              `json:"nodes"`
	PerNode      []stats.Counters `json:"per_node"`
	Histograms   []histJSON       `json:"histograms"`
	Phases       []Phase          `json:"phases"`
	FoldedPhases int              `json:"folded_phases,omitempty"`
	Serial       PhaseCounters    `json:"serial"`
	Total        PhaseCounters    `json:"total"`
}

// WriteJSON writes the full metrics dump (schema "parade-metrics/v1").
// Output is deterministic: every collection is a slice in recording
// order, and histogram buckets are emitted low to high.
func (m *Metrics) WriteJSON(w io.Writer) error {
	out := metricsJSON{
		Schema:       "parade-metrics/v1",
		Nodes:        len(m.nodes),
		PerNode:      m.nodes,
		Phases:       m.phases,
		FoldedPhases: m.foldedPhases,
		Serial:       m.serial,
		Total:        m.Total(),
	}
	if out.PerNode == nil {
		out.PerNode = []stats.Counters{}
	}
	if out.Phases == nil {
		out.Phases = []Phase{}
	}
	for id := 0; id < NumHists; id++ {
		out.Histograms = append(out.Histograms, histToJSON(&m.hist[id], histDefs[id].Name, histDefs[id].Unit))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
