package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRankAndSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, beyond := quantile(xs, 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond, want 50 with 50", v, beyond)
	}
	// 100 samples is the fewest with ten beyond the 90th percentile.
	if v, beyond := quantile(xs, 0.9); v != 90 || beyond != minSamplesBeyond {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with %d", v, beyond, minSamplesBeyond)
	}
	if _, beyond := quantile(xs[:99], 0.9); beyond >= minSamplesBeyond {
		t.Errorf("p90 of 99 samples has %d beyond, want fewer than %d", beyond, minSamplesBeyond)
	}
	if v, beyond := quantile([]float64{7}, 0.9); v != 7 || beyond != 0 {
		t.Errorf("p90 of one sample = %v with %d beyond", v, beyond)
	}
	if v, _ := quantile(nil, 0.5); v != 0 {
		t.Errorf("p50 of nothing = %v", v)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

// tracesDump is `go tool pprof -traces` output: one block per sample,
// the hit count's worth of time first, the stack leaf first.
const tracesDump = `File: e2e
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             parade/internal/dsm.DiffInto
             parade/internal/hlrc.(*Engine).flush
             parade/internal/core.(*Thread).Barrier
             parade/internal/apps.RunCG.func1
             parade/internal/sim.(*Simulator).spawn.func1
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.chanrecv
             parade/internal/sim.(*Proc).park
             parade/internal/core.(*Thread).Barrier
             parade/internal/sim.(*Simulator).spawn.func1
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             runtime.gcAssistAlloc
             parade/internal/harness.fpBits
             parade/internal/apps.RunMD
             main.runCell
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
             runtime.mcall
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
             net/http.(*conn).serve
-----------+-------------------------------------------------------
      10ms   encoding/json.Unmarshal
             parade/internal/fleet.(*Service).readBatch
             net/http.(*conn).serve
`

// parseTraces reads the blocks of a -traces dump (10 ms per hit).
func parseTraces(t *testing.T, dump string) []stackSample {
	t.Helper()
	var out []stackSample
	for _, block := range strings.Split(dump, "-----------+-------------------------------------------------------\n")[1:] {
		var s stackSample
		for i, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
			fields := strings.Fields(line)
			if i == 0 {
				d, err := time.ParseDuration(fields[0])
				if err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				s.count = int64(d / (10 * time.Millisecond))
				fields = fields[1:]
			}
			s.funcs = append(s.funcs, fields[0])
		}
		out = append(out, s)
	}
	return out
}

func TestHostSharesChargeLeafMostLayer(t *testing.T) {
	shares := hostShares(parseTraces(t, tracesDump))
	want := map[string]float64{
		"dsm.host_share":   0.3, // memmove under DiffInto is the diff engine's
		"sim.host_share":   0.2, // a channel wake-up under park is the kernel's
		"apps.host_share":  0.1, // harness is a driver: the app under it is charged
		shareGC:            0.1,
		shareSched:         0.1,
		shareBench:         0.1, // net/http with no parade frame
		"fleet.host_share": 0.1, // json decoding under the service is fleet's
	}
	sum := 0.0
	for name, got := range shares {
		sum += got
		if math.Abs(got-want[name]) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want[name])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	for _, d := range perLayer {
		if strings.HasSuffix(d.Name, "_share") {
			if _, ok := shares[d.Name]; !ok {
				t.Errorf("hostShares has no %s", d.Name)
			}
		}
	}
}

// Minimal protobuf writers for a canned profile.
func pbVarint(num int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, uint64(num)<<3), v)
}

func pbBytes(num int, b []byte) []byte {
	out := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(num)<<3|2), uint64(len(b)))
	return append(out, b...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return pbBytes(num, b)
}

func TestDecodeProfile(t *testing.T) {
	// Two functions; location 1 holds an inlined pair (leaf first),
	// location 2 one frame; one sample hit three times.
	strs := []string{"", "parade/internal/dsm.wordEqual", "parade/internal/dsm.DiffInto", "main.main"}
	var msg []byte
	msg = append(msg, pbBytes(2, append(pbPacked(1, 1, 2), pbPacked(2, 3, 30_000_000)...))...)
	line := func(fn uint64) []byte { return pbBytes(4, pbVarint(1, fn)) }
	msg = append(msg, pbBytes(4, append(append(pbVarint(1, 1), line(1)...), line(2)...))...)
	msg = append(msg, pbBytes(4, append(pbVarint(1, 2), line(3)...))...)
	for id := uint64(1); id <= 3; id++ {
		msg = append(msg, pbBytes(5, append(pbVarint(1, id), pbVarint(2, id)...))...)
	}
	for _, s := range strs {
		msg = append(msg, pbBytes(6, []byte(s))...)
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(msg)
	zw.Close()

	samples, err := decodeProfile(zipped.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].count != 3 || strings.Join(samples[0].funcs, " ") != strings.Join(strs[1:], " ") {
		t.Fatalf("decoded %+v", samples)
	}
	if got := layerOf(samples[0].funcs); got != "dsm.host_share" {
		t.Errorf("layerOf = %s", got)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "run", parent: -1, start: 0, end: 100 * ms},
		{name: "pass", parent: 0, start: 10 * ms, end: 50 * ms},
		{name: "cell:a", parent: 1, start: 11 * ms, end: 30 * ms},
		{name: "cell:b", parent: 1, start: 30 * ms, end: 48 * ms},
		{name: "pass", parent: 0, start: 50 * ms, end: 60 * ms},
		{name: "http.post", parent: 4, start: 51 * ms, end: 59 * ms},
		{name: "decode", parent: 5, start: 55 * ms, end: 58 * ms},
	}
	want := []time.Duration{50 * ms, 3 * ms, 19 * ms, 18 * ms, 2 * ms, 5 * ms, 3 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s (span %d) = %v, want %v", spans[i].name, i, got, want[i])
		}
	}
	if got := meanSelfUs(spans, "pass"); got != 2500 {
		t.Errorf("mean pass self time = %v us, want 2500", got)
	}

	tr, root := newTracer("r1")
	child := root.start("setup")
	child.end()
	root.end()
	if len(tr.spans) != 2 || tr.spans[1].parent != 0 || tr.spans[1].end < tr.spans[1].start {
		t.Errorf("recorded spans %+v", tr.spans)
	}
	// The zero spanCtx records nothing and must not panic.
	spanCtx{}.start("x").end()
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "pass_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"unchanged", lower, steady, []float64{101, 100, 100, 102, 99}, verdictOK},
		{"slower by 20%", lower, steady, []float64{120, 121, 119, 120, 120}, verdictWorse},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, verdictOK},
		{"noisy and overlapping", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 118, 95, 100}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 79}, verdictOK},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79, 80, 80}, verdictWorse},
		{"throughput up", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
	} {
		if got := judge(tc.d, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesExitsWorse(t *testing.T) {
	dir := t.TempDir()
	// write makes a set of three runs (seeds 1..3) whose virtual time
	// depends on the seed alone, plus virtShift.
	write := func(name string, p50, virtShift float64, firstSeed int64) string {
		var runs []runResult
		for i := 0; i < 3; i++ {
			seed := firstSeed + int64(i)
			runs = append(runs, runResult{Workload: "serve-cold", Seed: seed, Metrics: map[string]metricValue{
				"pass_ms_p50":      {p50 + float64(i)*0.01, "ms"},
				"virt_ms_per_pass": {370 + float64(seed) + virtShift, "ms"},
				"fail_ratio":       {0, "ratio"}}})
		}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100, 0, 1)
	for _, tc := range []struct {
		name, file string
		worse      bool
		row        string // a word the row in question must carry
	}{
		{"same", write("same.json", 101, 0, 1), false, ""},
		{"slow", write("slow.json", 150, 0, 1), true, "pass_ms_p50"},
		{"virtual time moved", write("virt.json", 100, 0.001, 1), true, "virt_ms_per_pass"},
		{"no shared seed", write("seeds.json", 100, 0, 7), false, verdictUnresolved},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, a, tc.file)
		if err != nil || worse != tc.worse {
			t.Errorf("%s: worse=%v err=%v\n%s", tc.name, worse, err, out.String())
		}
		rowFound := tc.row == ""
		for _, line := range strings.Split(out.String(), "\n") {
			if tc.row != "" && strings.Contains(line, tc.row) && (strings.Contains(line, verdictWorse) || tc.row == verdictUnresolved) {
				rowFound = true
			}
		}
		if !rowFound {
			t.Errorf("%s: no row with %q:\n%s", tc.name, tc.row, out.String())
		}
	}
}

// testEnv is a -quick environment over the committed goldens.
func testEnv(t *testing.T, w workload) env {
	t.Helper()
	gold, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	return env{seed: 5, quick: true, tmpRoot: t.TempDir(), gold: gold[w.name]}
}

func TestQuickSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res, err := runTimed(w, testEnv(t, w), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Passes != 1 || res.Cells == 0 || res.Failed != 0 {
			t.Errorf("%s: %d passes, %d cells, %d failed (%s)", w.name, res.Passes, res.Cells, res.Failed, res.FirstFail)
		}
		var line bytes.Buffer
		if err := printLastLine(&line, res); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		var parsed struct {
			Correct bool
			Metrics map[string]metricValue
		}
		if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || !parsed.Correct {
			t.Errorf("%s: last line %q: %v", w.name, line.String(), err)
		}
		for _, d := range endToEnd {
			m, measured := res.Metrics[d.Name]
			if !measured {
				t.Errorf("%s: %s not measured", w.name, d.Name)
			}
			if _, onLine := parsed.Metrics[d.Name]; onLine != d.Gated {
				t.Errorf("%s: %s on the last line = %v", w.name, d.Name, onLine)
			}
			if d.Gated && m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", w.name, d.Name, m.Value)
			}
		}
	}
}

func TestFlippedGoldenBitFailsWarmupAndNamesCell(t *testing.T) {
	for _, tc := range []struct{ workload, cell string }{
		{"tasks", "quad/sdsm/8x1/0/legacy"},
		{"serve-cold", "cg/hybrid"}, // also: the WAL directory of a failed run is removed
	} {
		w, err := workloadByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		e := testEnv(t, w)
		g, ok := e.gold[tc.cell]
		if !ok {
			t.Fatalf("no golden for %s", tc.cell)
		}
		flipped := []byte(g.MemHash)
		flipped[len(flipped)-1] ^= 1 // '4' <-> '5', 'e' <-> 'd': one bit of the hex text
		g.MemHash = string(flipped)
		e.gold[tc.cell] = g
		_, err = runTimed(w, e, 0)
		if err == nil || !strings.Contains(err.Error(), tc.cell) {
			t.Errorf("%s warm-up with a flipped golden bit: %v, want an error naming %s", tc.workload, err, tc.cell)
		}
		if entries, _ := os.ReadDir(e.tmpRoot); len(entries) != 0 {
			t.Errorf("failed %s run left %d entries in the scratch directory", tc.workload, len(entries))
		}
	}
}

func TestTracedQuickMeasuresEveryPerLayerMetric(t *testing.T) {
	w, err := workloadByName("serve-cold")
	if err != nil {
		t.Fatal(err)
	}
	e := testEnv(t, w)
	traceFile := filepath.Join(e.tmpRoot, "trace.json")
	res, err := runTraced(w, e, 0, traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d cells failed: %s", res.Failed, res.FirstFail)
	}
	shares := 0.0
	for _, d := range perLayer {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s not measured", d.Name)
		}
		if strings.HasSuffix(d.Name, "_share") {
			shares += m.Value
		}
	}
	// One short pass may catch no profile sample at all.
	if math.Abs(shares-1) > 1e-9 && shares != 0 {
		t.Errorf("host shares sum to %v, want 1", shares)
	}
	for _, name := range []string{"netsim.retransmits", "fleet.wal_appends", "fleet.executions", "hlrc.new_us", "sim.mp_penalty"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on serve-cold, want a positive reading", name, res.Metrics[name].Value)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Args struct{ Parent int }
		}
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		seen[strings.SplitN(ev.Name, ":", 2)[0]] = true
	}
	for _, name := range []string{"run", "setup", "pass", "http.post", "decode", "driver", "probe"} {
		if !seen[name] {
			t.Errorf("trace has no %s span", name)
		}
	}
	entries, _ := os.ReadDir(e.tmpRoot)
	if len(entries) != 1 {
		t.Errorf("traced run left %d entries beside the trace file", len(entries)-1)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root and the tables in this package from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, table has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, table has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			gated = append(gated, d)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, table gates %d", len(b.EndToEnd), len(gated))
	}
	for i, d := range gated {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d = %+v, table has %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, table has %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d = %+v, table has %+v", i, got, d)
		}
	}
}
