package core

import (
	"bytes"
	"testing"

	"parade/internal/obs"
	"parade/internal/stats"
)

// obsProgram exercises every instrumented layer: shared-array faults and
// fetches, a critical directive, a reduction, and two parallel regions.
func obsProgram(m *Thread) {
	c := m.Cluster()
	a := c.AllocF64(1024)
	sum := c.ScalarVar("sum")
	m.Parallel(func(t *Thread) {
		lo, hi := t.StaticRange(0, 1024)
		for i := lo; i < hi; i++ {
			a.Set(t, i, float64(i))
		}
		t.Critical("acc", []*Scalar{sum}, func() { sum.Add(t, 1) })
		t.Barrier()
		t.Reduce("r", OpSum, 1)
	})
	m.Parallel(func(t *Thread) {
		lo, hi := t.StaticRange(0, 1024)
		for i := lo; i < hi; i++ {
			a.Set(t, i, a.Get(t, i)+1)
		}
	})
}

// traceRun executes obsProgram with a JSONL trace attached and returns
// the trace bytes.
func traceRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.New(cfg.Nodes)
	rec.TraceMessages(true)
	rec.AddSink(obs.NewJSONLSink(&buf))
	cfg.Obs = rec
	run(t, cfg, obsProgram)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminism pins the acceptance criterion that two runs with
// the same seed produce byte-identical traces, in both directive modes.
func TestTraceDeterminism(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		cfg := Config{Nodes: 4, ThreadsPerNode: 2, Mode: mode,
			HomeMigration: mode == Hybrid, Seed: 7}
		a := traceRun(t, cfg)
		b := traceRun(t, cfg)
		if len(a) == 0 {
			t.Fatalf("mode %v: empty trace", mode)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("mode %v: same-seed traces differ (%d vs %d bytes)", mode, len(a), len(b))
		}
	}
}

// TestReportObsMetrics checks that Report.Obs presents the run's one
// counter registry — its per-node rows sum to Report.Counters — and that
// the histograms, which the recorder does keep itself, agree with the
// counters wherever both measure the same events.
func TestReportObsMetrics(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SDSM} {
		t.Run(mode.String(), func(t *testing.T) { checkReportObs(t, mode) })
	}
}

func checkReportObs(t *testing.T, mode Mode) {
	cfg := Config{Nodes: 2, ThreadsPerNode: 2, Mode: mode}
	rec := obs.New(cfg.Nodes)
	cfg.Obs = rec
	rep := run(t, cfg, obsProgram)
	if rep.Obs == nil {
		t.Fatal("Report.Obs nil despite Config.Obs being set")
	}
	m, c := rep.Obs, rep.Counters
	if m.Nodes() != cfg.Nodes {
		t.Fatalf("%d per-node rows, want %d", m.Nodes(), cfg.Nodes)
	}
	var sum stats.Counters
	for i := 0; i < m.Nodes(); i++ {
		row := m.Node(i)
		sum.Add(&row)
		if i > 0 && row.Barriers != 0 {
			t.Errorf("node %d carries %d sdsm_barriers; global barriers belong to the master", i, row.Barriers)
		}
	}
	if sum != c {
		t.Errorf("per-node rows sum to\n%+v\nReport.Counters is\n%+v", sum, c)
	}
	if c.WriteFaults == 0 || c.FetchesIssued == 0 || c.Barriers == 0 || c.Directives == 0 ||
		(mode == Hybrid) != (c.Collectives > 0) {
		t.Errorf("program left protocol counters at zero: %s", c.String())
	}
	if got := len(m.Phases()); got != 2 {
		t.Errorf("got %d phases, want 2 (one per Parallel)", got)
	}
	for i, ph := range m.Phases() {
		if ph.EndNs <= ph.StartNs {
			t.Errorf("phase %d: end %d <= start %d", i, ph.EndNs, ph.StartNs)
		}
	}
	// The program has no prefetch or refresh, so every fetch issued is a
	// demand fault the histogram timed, and every one was served.
	for _, h := range []struct {
		id   int
		want int64
	}{
		{obs.HistPageFetch, c.FetchesIssued},
		{obs.HistPageFetch, c.PageFetches},
		{obs.HistDirective, c.Directives},
		{obs.HistCollective, c.Collectives},
		{obs.HistBarrierWait, c.Barriers * int64(cfg.Nodes)},
		{obs.HistDiffBytes, c.DiffsCreated},
	} {
		if got := m.Hist(h.id); got.Count != h.want {
			t.Errorf("%s histogram has %d observations, counters say %d", obs.HistName(h.id), got.Count, h.want)
		}
	}
	if cpu := m.Hist(obs.HistCPUWait); cpu.Sum != c.CPUWaitNs {
		t.Errorf("cpu_wait histogram sums to %d ns, cpu_wait_ns is %d", cpu.Sum, c.CPUWaitNs)
	}
	if tot := m.Total(); tot.Msgs != c.Messages || tot.Bytes != c.Bytes || tot.Directives != c.Directives {
		t.Errorf("phase total %+v disagrees with counters %s", tot, c.String())
	}
}

// TestObsDisabledByDefault pins that runs without Config.Obs stay on the
// nil-recorder path and report no metrics.
func TestObsDisabledByDefault(t *testing.T) {
	rep := run(t, Config{Nodes: 2}, func(m *Thread) {
		m.Parallel(func(*Thread) {})
	})
	if rep.Obs != nil {
		t.Error("Report.Obs should be nil when Config.Obs is unset")
	}
}
