package hlrc

import (
	"reflect"
	"testing"

	"parade/internal/dsm"
	"parade/internal/sim"
)

// traceStep is one barrier interval of a synthetic access trace:
// which nodes wrote and which nodes read each page.
type traceStep struct {
	writes map[int][]int // page -> writing nodes
	reads  map[int][]int // page -> reading nodes
}

// runTrace feeds the steps through a classifier exactly the way
// completeBarrier does: reads arrive via noteReads during the interval,
// the modifier map closes it via observe. Epochs continue from start so
// multi-call tests keep monotonic virtual time.
func runTrace(c *classifier, steps []traceStep) []reclassEvent {
	return runTraceAt(c, 0, steps)
}

func runTraceAt(c *classifier, start int, steps []traceStep) []reclassEvent {
	var events []reclassEvent
	for i, st := range steps {
		epoch := start + i
		for pg, nodes := range st.reads {
			for _, n := range nodes {
				c.noteReads(n, []int{pg})
			}
		}
		mods := map[int]map[int]bool{}
		for pg, nodes := range st.writes {
			set := map[int]bool{}
			for _, n := range nodes {
				set[n] = true
			}
			mods[pg] = set
		}
		events = append(events, c.observe(epoch, sim.Time(1000*(epoch+1)), mods)...)
	}
	return events
}

// w and r build single-page trace steps tersely.
func w(pg int, nodes ...int) traceStep {
	return traceStep{writes: map[int][]int{pg: nodes}}
}
func r(pg int, nodes ...int) traceStep {
	return traceStep{reads: map[int][]int{pg: nodes}}
}

// TestClassifierPatterns drives each access-pattern class from the
// synthetic trace that defines it and checks the converged verdict.
func TestClassifierPatterns(t *testing.T) {
	cases := []struct {
		name  string
		steps []traceStep
		want  PageClass
	}{
		{
			name:  "read-mostly",
			steps: []traceStep{r(0, 1, 2), r(0, 3), r(0, 1)},
			want:  ClassReadMostly,
		},
		{
			name:  "migratory",
			steps: []traceStep{w(0, 1), w(0, 2), w(0, 3)},
			want:  ClassMigratory,
		},
		{
			// The canonical same-interval shape: one writer, concurrent
			// readers on other nodes.
			name: "producer-consumer same interval",
			steps: []traceStep{
				{writes: map[int][]int{0: {0}}, reads: map[int][]int{0: {1, 2}}},
				{writes: map[int][]int{0: {0}}, reads: map[int][]int{0: {1, 2}}},
			},
			want: ClassProducerConsumer,
		},
		{
			// The cross-interval shape most kernels produce: write at
			// barrier k, read during interval k+1. The read-only interval
			// banks its evidence for the next modified interval.
			name:  "producer-consumer alternating intervals",
			steps: []traceStep{w(0, 0), r(0, 1, 2), w(0, 0), r(0, 1, 2), w(0, 0)},
			want:  ClassProducerConsumer,
		},
		{
			name:  "falsely shared",
			steps: []traceStep{w(0, 0, 1), w(0, 2, 3)},
			want:  ClassFalselyShared,
		},
		{
			// The writer reading its own page is not a consumer.
			name: "self-read stays migratory",
			steps: []traceStep{
				{writes: map[int][]int{0: {2}}, reads: map[int][]int{0: {2}}},
				{writes: map[int][]int{0: {2}}, reads: map[int][]int{0: {2}}},
			},
			want: ClassMigratory,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClassifier(4)
			runTrace(c, tc.steps)
			if got := c.classOf(0); got != tc.want {
				t.Fatalf("class = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestClassifierUntouchedPagesStayUnknown: observation is per touched
// page; everything else keeps the zero verdict.
func TestClassifierUntouchedPagesStayUnknown(t *testing.T) {
	c := newClassifier(4)
	runTrace(c, []traceStep{w(1, 0), w(1, 0)})
	for _, pg := range []int{0, 2, 3} {
		if got := c.classOf(pg); got != ClassUnknown {
			t.Fatalf("untouched page %d classified %v", pg, got)
		}
	}
}

// TestClassifierFirstClassificationImmediate: hysteresis protects an
// established protocol, but an unknown page has none, so the first
// verdict applies after a single interval.
func TestClassifierFirstClassificationImmediate(t *testing.T) {
	c := newClassifier(1)
	ev := runTrace(c, []traceStep{w(0, 2)})
	if got := c.classOf(0); got != ClassMigratory {
		t.Fatalf("class after one interval = %v, want migratory", got)
	}
	if len(ev) != 1 || !ev[0].First || ev[0].Class != ClassMigratory {
		t.Fatalf("events = %+v, want one First migratory event", ev)
	}
}

// TestClassifierHysteresis pins the two-interval rule at both
// boundaries: one anomalous interval must not flip an established
// class; the second consecutive one must.
func TestClassifierHysteresis(t *testing.T) {
	c := newClassifier(1)
	// Establish migratory.
	runTrace(c, []traceStep{w(0, 1), w(0, 2)})
	if got := c.classOf(0); got != ClassMigratory {
		t.Fatalf("setup class = %v, want migratory", got)
	}
	// One falsely-shared interval: candidate changes, verdict must not.
	runTraceAt(c, 2, []traceStep{w(0, 0, 1)})
	if got := c.classOf(0); got != ClassMigratory {
		t.Fatalf("class flipped after one anomalous interval: %v", got)
	}
	// A second consecutive one crosses the threshold.
	ev := runTraceAt(c, 3, []traceStep{w(0, 2, 3)})
	if got := c.classOf(0); got != ClassFalselyShared {
		t.Fatalf("class after two falsely-shared intervals = %v", got)
	}
	if len(ev) != 1 || ev[0].Class != ClassFalselyShared || ev[0].First {
		t.Fatalf("events = %+v, want one non-First falsely-shared event", ev)
	}
	if ev[0].SinceNs <= 0 {
		t.Fatalf("SinceNs = %d, want positive latency since previous change", ev[0].SinceNs)
	}
	// An interrupted streak starts over: migratory, then one
	// falsely-shared, then migratory again — still migratory... so a
	// later single falsely-shared interval is again not enough.
	c2 := newClassifier(1)
	runTrace(c2, []traceStep{w(0, 1), w(0, 2), w(0, 0, 1), w(0, 3), w(0, 0, 1)})
	if got := c2.classOf(0); got != ClassMigratory {
		t.Fatalf("interrupted streak flipped the class: %v", got)
	}
}

// TestClassifierBankingSurvivesMultipleReadIntervals: consumer evidence
// accumulates across consecutive read-only intervals and is consumed by
// the next write.
func TestClassifierBankingSurvivesMultipleReadIntervals(t *testing.T) {
	c := newClassifier(1)
	runTrace(c, []traceStep{w(0, 0), r(0, 1), r(0, 2), w(0, 0), r(0, 3), w(0, 0)})
	if got := c.classOf(0); got != ClassProducerConsumer {
		t.Fatalf("class = %v, want producer-consumer", got)
	}
}

// TestClassifierDeterministicAcrossInsertionOrder: the same logical
// trace delivered in different arrival orders (reads noted
// node-by-node vs. page-by-page, modifier maps built in different
// orders) must produce identical events, verdicts, and fold words —
// the property the cross-lane bit-identity guarantee rests on.
func TestClassifierDeterministicAcrossInsertionOrder(t *testing.T) {
	build := func(reverse bool) (*classifier, []reclassEvent) {
		c := newClassifier(8)
		var events []reclassEvent
		for epoch := 0; epoch < 6; epoch++ {
			nodes := []int{0, 1, 2, 3}
			if reverse {
				nodes = []int{3, 2, 1, 0}
			}
			for _, n := range nodes {
				// Every node reads pages (n, n+1) mod 8 each interval.
				c.noteReads(n, []int{n % 8, (n + 1) % 8})
			}
			mods := map[int]map[int]bool{}
			pages := []int{1, 4, 6}
			if reverse {
				pages = []int{6, 4, 1}
			}
			for _, pg := range pages {
				mods[pg] = map[int]bool{pg % 4: true, (pg + epoch) % 4: true}
			}
			events = append(events, c.observe(epoch, sim.Time(1000*(epoch+1)), mods)...)
		}
		return c, events
	}
	c1, ev1 := build(false)
	c2, ev2 := build(true)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event streams diverge:\n%+v\n%+v", ev1, ev2)
	}
	for pg := 0; pg < 8; pg++ {
		if c1.classOf(pg) != c2.classOf(pg) {
			t.Fatalf("page %d: %v vs %v", pg, c1.classOf(pg), c2.classOf(pg))
		}
	}
	if f1, f2 := collectFold(c1), collectFold(c2); !reflect.DeepEqual(f1, f2) {
		t.Fatalf("folds diverge:\n%v\n%v", f1, f2)
	}
}

// TestPushByClass pins the adaptive propagation rule, including the
// minority-writer boundary for falsely-shared pages (push at exactly
// half the cluster writing, invalidate above).
func TestPushByClass(t *testing.T) {
	cases := []struct {
		name   string
		class  PageClass
		mods   []int
		nnodes int
		want   bool
	}{
		{"read-mostly pushes", ClassReadMostly, []int{0}, 4, true},
		{"producer-consumer pushes", ClassProducerConsumer, []int{2}, 4, true},
		{"migratory invalidates", ClassMigratory, []int{1}, 4, false},
		{"unknown invalidates", ClassUnknown, []int{1}, 4, false},
		{"falsely-shared minority pushes", ClassFalselyShared, []int{0, 1}, 4, true},
		{"falsely-shared exactly half pushes", ClassFalselyShared, []int{0, 1, 2, 3}, 8, true},
		{"falsely-shared majority invalidates", ClassFalselyShared, []int{0, 1, 2}, 4, false},
		{"falsely-shared all-writers invalidates", ClassFalselyShared, []int{0, 1, 2, 3}, 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := shouldPush(PolicyAdaptive, tc.class, tc.mods, tc.nnodes); got != tc.want {
				t.Fatalf("shouldPush(%v, %v, %d) = %v, want %v",
					tc.class, tc.mods, tc.nnodes, got, tc.want)
			}
		})
	}
}

// TestHomeStrategies pins both election rules side by side.
func TestHomeStrategies(t *testing.T) {
	cases := []struct {
		name      string
		policy    string
		cur       int
		mods      []int
		class     PageClass
		migration bool
		want      int
	}{
		{"legacy migrates single mod", PolicyLegacy, 0, []int{2}, ClassUnknown, true, 2},
		{"legacy pinned without flag", PolicyLegacy, 0, []int{2}, ClassUnknown, false, 0},
		{"legacy keeps home on multi-mod", PolicyLegacy, 0, []int{1, 2}, ClassUnknown, true, 0},
		{"adaptive follows migratory writer", PolicyAdaptive, 0, []int{2}, ClassMigratory, false, 2},
		{"adaptive follows producer", PolicyAdaptive, 0, []int{3}, ClassProducerConsumer, false, 3},
		{"adaptive pins falsely-shared", PolicyAdaptive, 0, []int{2}, ClassFalselyShared, true, 0},
		{"adaptive pins read-mostly", PolicyAdaptive, 0, []int{2}, ClassReadMostly, true, 0},
		{"adaptive unknown falls back to legacy", PolicyAdaptive, 0, []int{2}, ClassUnknown, true, 2},
		{"adaptive keeps home on multi-mod", PolicyAdaptive, 1, []int{0, 2}, ClassFalselyShared, true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := electHome(tc.policy, tc.cur, tc.mods, tc.class, tc.migration)
			if got != tc.want {
				t.Fatalf("electHome = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestPolicyNames: the accepted-name list and validator stay in sync,
// New builds a classifier for exactly the adaptive policy, and the empty
// name is an alias of invalidate in both election rules.
func TestPolicyNames(t *testing.T) {
	want := []string{PolicyLegacy, PolicyInvalidate, PolicyUpdate, PolicyAdaptive}
	if got := PolicyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PolicyNames() = %q", got)
	}
	for _, name := range want {
		if !ValidPolicy(name) {
			t.Fatalf("ValidPolicy(%q) = false", name)
		}
		tc := newClusterWith(Config{Nodes: 2, ShmBytes: 1 << 16, Strategy: dsm.FileMapping, Policy: name}, false)
		if (tc.e.cls != nil) != (name == PolicyAdaptive) {
			t.Fatalf("New(Policy %q) classifier presence wrong", name)
		}
	}
	// The empty name is an alias: every election matches invalidate's.
	classes := []PageClass{ClassUnknown, ClassReadMostly, ClassMigratory, ClassProducerConsumer, ClassFalselyShared}
	for _, class := range classes {
		for _, mods := range [][]int{{1}, {0, 1}, {0, 1, 2, 3}} {
			for _, migration := range []bool{false, true} {
				if electHome(PolicyLegacy, 0, mods, class, migration) != electHome(PolicyInvalidate, 0, mods, class, migration) ||
					shouldPush(PolicyLegacy, class, mods, 4) != shouldPush(PolicyInvalidate, class, mods, 4) {
					t.Fatalf(`policy "" differs from invalidate on %v %v migration=%v`, class, mods, migration)
				}
				if shouldPush(PolicyInvalidate, class, mods, 4) || !shouldPush(PolicyUpdate, class, mods, 4) {
					t.Fatalf("fixed propagation wrong on %v %v", class, mods)
				}
			}
		}
	}
	if ValidPolicy("bogus") {
		t.Fatal(`ValidPolicy("bogus") = true`)
	}
}
