package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"parade/internal/sim"
	"parade/internal/stats"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	// Bucket i>0 holds [2^(i-1), 2^i); bucket 0 holds exactly 0.
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {-5, 0}, // negatives clamp to 0
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}
	for i, n := range h.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if h.Count != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count, len(cases))
	}
	if h.Min != 0 || h.Max != 1024 {
		t.Errorf("Min/Max = %d/%d, want 0/1024", h.Min, h.Max)
	}
}

func TestBucketUpper(t *testing.T) {
	for i, want := range map[int]int64{-1: 0, 0: 0, 1: 1, 2: 3, 3: 7, 10: 1023} {
		if got := BucketUpper(i); got != want {
			t.Errorf("BucketUpper(%d) = %d, want %d", i, got, want)
		}
	}
	if got := BucketUpper(64); got != int64(^uint64(0)>>1) {
		t.Errorf("BucketUpper(64) = %d, want MaxInt64", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// p50 of 1..100 lands in bucket of 50 (bits.Len64(50)=6, upper 63).
	if q := h.Quantile(0.5); q != 63 {
		t.Errorf("p50 = %d, want 63", q)
	}
	// p100 must clamp to the observed max, not the bucket upper bound 127.
	if q := h.Quantile(1); q != 100 {
		t.Errorf("p100 = %d, want 100 (clamped to Max)", q)
	}
	if m := h.Mean(); m != 50.5 {
		t.Errorf("Mean = %v, want 50.5", m)
	}
}

// TestTextSinkFormat pins the text sink's line shapes: the four protocol
// lines every trace has carried since the printf tracer, and the
// completion-span lines for barriers and locks.
func TestTextSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	r := New(2)
	r.AddSink(NewTextSink(&buf))
	t1 := sim.Time(1500)
	r.FetchStart(t1, 1, 7, 0, false)
	r.FetchStart(t1, 1, 8, 0, true)
	r.FlushStart(t1, 1, 3, 2)
	r.HomeMigrate(t1, 4, 7, 0, 1)
	r.BarrierComplete(t1, 4, 3)
	r.BarrierWait(0, t1, 1)
	r.LockAcquired(0, t1, 1, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("[%12s] node 1: read fault on page 7, fetching from home 0\n", t1) +
		fmt.Sprintf("[%12s] node 1: write fault on page 8, fetching from home 0\n", t1) +
		fmt.Sprintf("[%12s] node 1: flush 3 dirty pages, 2 diff bundles\n", t1) +
		fmt.Sprintf("[%12s] barrier 4: page 7 home migrates 0 -> 1\n", t1) +
		fmt.Sprintf("[%12s] barrier 4: complete, 3 modified pages\n", t1) +
		fmt.Sprintf("[%12s] node 1: barrier passed (%s)\n", t1, sim.Duration(t1)) +
		fmt.Sprintf("[%12s] node 1: lock 0 acquired (%s)\n", t1, sim.Duration(t1))
	if buf.String() != want {
		t.Errorf("text trace mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

// emitAll drives one event of every kind through the recorder.
func emitAll(r *Recorder) {
	r.TraceMessages(true)
	r.RegionBegin(10, 1)
	r.FetchStart(20, 0, 3, 1, true)
	r.FetchDone(20, 45, 0, 3, 1)
	r.FlushStart(50, 1, 2, 1)
	r.FlushDone(50, 80, 1, 2, 1)
	r.HomeMigrate(90, 1, 3, 1, 0)
	r.BarrierComplete(95, 1, 2)
	r.BarrierWait(60, 95, 0)
	r.LockAcquired(100, 130, 1, 2)
	r.LockReleased(140, 1, 2)
	r.Collective(150, 170, 0, "allreduce", 8)
	r.Directive(150, 180, 0, "critical", "sum")
	r.MsgSent(185, 0, 1, 64, 0)
	r.RegionEnd(10, 190, 1)
}

func TestJSONLSinkValidLines(t *testing.T) {
	var buf bytes.Buffer
	r := New(2)
	r.AddSink(NewJSONLSink(&buf))
	emitAll(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 14 {
		t.Fatalf("got %d JSONL lines, want 14:\n%s", len(lines), buf.String())
	}
	kinds := map[string]bool{}
	for _, ln := range lines {
		var rec struct {
			T    int64  `json:"t"`
			Kind string `json:"kind"`
			Node int    `json:"node"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		kinds[rec.Kind] = true
	}
	for _, k := range []string{"page_fetch", "diff_flush", "barrier", "lock_acquire", "collective", "directive", "region", "msg_send"} {
		if !kinds[k] {
			t.Errorf("kind %q missing from JSONL trace (have %v)", k, kinds)
		}
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	r := New(2)
	r.AddSink(NewChromeSink(&buf))
	emitAll(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "X":
			spans++
			if _, ok := e["dur"].(float64); !ok {
				t.Errorf("X event without dur: %v", e)
			}
		case "i":
			instants++
			if s, _ := e["s"].(string); s != "t" {
				t.Errorf("instant without thread scope: %v", e)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q in %v", ph, e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Errorf("event without pid: %v", e)
		}
	}
	// Spans: fetch, flush, barrier, lock, collective, directive, region.
	if spans != 7 {
		t.Errorf("got %d X spans, want 7", spans)
	}
	// Instants: home_migrate, barrier_done, lock_release, msg_send.
	if instants != 4 {
		t.Errorf("got %d instants, want 4", instants)
	}
	if meta == 0 {
		t.Error("no process/thread name metadata emitted")
	}
}

func TestMetricsJSONAndPhases(t *testing.T) {
	r := New(2)
	// Activity before any region lands in the serial accumulator.
	r.FetchDone(0, 10, 0, 1, 1)
	r.RegionBegin(10, 1)
	r.FetchDone(20, 45, 0, 3, 1)
	r.Collective(150, 170, 1, "allreduce", 8)
	r.RegionEnd(10, 190, 1)
	r.FetchDone(200, 210, 1, 4, 0)

	m := r.Metrics()
	if got := len(m.Phases()); got != 1 {
		t.Fatalf("got %d phases, want 1", got)
	}
	ph := m.Phases()[0]
	if ph.Seq != 1 || ph.C.Fetches != 1 || ph.C.Collectives != 1 {
		t.Errorf("phase = %+v, want seq 1 with 1 fetch and 1 collective", ph)
	}
	if m.Serial().Fetches != 2 {
		t.Errorf("serial fetches = %d, want 2", m.Serial().Fetches)
	}
	if m.Total().Fetches != 3 {
		t.Errorf("total fetches = %d, want 3", m.Total().Fetches)
	}
	// The per-node view is whatever registry rows the run hands over.
	if m.Nodes() != 0 {
		t.Errorf("%d node rows before the hand-over, want 0", m.Nodes())
	}
	m.SetNodeCounters([]stats.Counters{{FetchesIssued: 2}, {FetchesIssued: 1, Retransmits: 4}})
	if n := m.Node(0); n.FetchesIssued != 2 || m.Node(7) != (stats.Counters{}) {
		t.Errorf("node 0 = %+v, node 7 = %+v", n, m.Node(7))
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema     string             `json:"schema"`
		PerNode    []map[string]int64 `json:"per_node"`
		Histograms []struct {
			Name  string `json:"name"`
			Unit  string `json:"unit"`
			Count int64  `json:"count"`
		} `json:"histograms"`
		Phases []json.RawMessage `json:"phases"`
		Total  PhaseCounters     `json:"total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, buf.String())
	}
	if doc.Schema != "parade-metrics/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.PerNode) != 2 || len(doc.Phases) != 1 {
		t.Fatalf("per_node=%d phases=%d, want 2 and 1", len(doc.PerNode), len(doc.Phases))
	}
	// Keys are the stats.Counters names; rarely non-zero groups are
	// omitted while zero.
	if n0, n1 := doc.PerNode[0], doc.PerNode[1]; n0["page_fetches_issued"] != 2 || n1["rel_retransmits"] != 4 {
		t.Errorf("per_node = %v", doc.PerNode)
	} else if _, ok := n0["rel_retransmits"]; ok {
		t.Errorf("zero rel_retransmits not omitted: %v", n0)
	}
	if doc.Total != m.Total() || doc.Total.Fetches != 3 || doc.Total.FetchWaitNs != 45 {
		t.Errorf("total = %+v, want serial + phases", doc.Total)
	}
	found := false
	for _, h := range doc.Histograms {
		if h.Name == "page_fetch" {
			found = true
			if h.Count != 3 || h.Unit != "ns" {
				t.Errorf("page_fetch hist = %+v", h)
			}
		}
	}
	if !found {
		t.Error("page_fetch histogram missing")
	}
}

// TestDisabledPathZeroAlloc pins the zero-overhead contract: every
// recording call on a nil recorder, and the histogram/phase-only calls
// on an enabled recorder without sinks, must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(100, func() {
		nilRec.FetchStart(1, 0, 1, 1, false)
		nilRec.FetchDone(1, 2, 0, 1, 1)
		nilRec.DiffCreated(0, 64)
		nilRec.FlushDone(1, 2, 0, 1, 1)
		nilRec.BarrierWait(1, 2, 0)
		nilRec.LockAcquired(1, 2, 0, 0)
		nilRec.MsgSent(1, 0, 1, 64, 0)
		nilRec.Collective(1, 2, 0, "bcast", 8)
		nilRec.Directive(1, 2, 0, "critical", "x")
		nilRec.CPUWait(0, 5)
	}); n != 0 {
		t.Errorf("nil recorder allocates %v per run, want 0", n)
	}

	rec := New(4)
	if n := testing.AllocsPerRun(100, func() {
		rec.FetchDone(1, 2, 3, 1, 1)
		rec.DiffCreated(3, 64)
		rec.FlushDone(1, 2, 3, 1, 1)
		rec.BarrierWait(1, 2, 3)
		rec.LockAcquired(1, 2, 3, 0)
		rec.MsgSent(1, 3, 1, 64, 0)
		rec.Collective(1, 2, 3, "bcast", 8)
		rec.Directive(1, 2, 3, "critical", "x")
		rec.CPUWait(3, 5)
	}); n != 0 {
		t.Errorf("sinkless recorder allocates %v per run, want 0", n)
	}
}
