package fleet

import (
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"parade/internal/harness"
	"parade/internal/sim"
)

// validSpec is the cheapest valid job: one cell of the matrix.
func validSpec() JobSpec {
	return JobSpec{App: "ep", Mode: "hybrid"}
}

func TestJobSpecValidationTable(t *testing.T) {
	cases := []struct {
		name   string
		spec   JobSpec
		fields []string // invalid field names, nil for a valid spec
		reason string   // substring expected in the first field's reason
	}{
		{name: "valid defaults", spec: JobSpec{App: "ep", Mode: "hybrid"}},
		{name: "valid sdsm with everything", spec: JobSpec{
			App: "lockmix", Mode: "sdsm", Fabric: "tcp", Nodes: 8,
			ThreadsPerNode: 2, Seed: 7, FaultProfile: "chaos",
		}},
		{name: "valid crash schedule", spec: JobSpec{App: "cg", Mode: "hybrid", Crash: "1@1,1@3"}},
		{name: "two distinct crash nodes", spec: JobSpec{App: "cg", Mode: "hybrid", Crash: "1@1,2@3"},
			fields: []string{"crash"}, reason: "one distinct node"},
		{name: "missing app", spec: JobSpec{Mode: "hybrid"},
			fields: []string{"app"}, reason: "required"},
		{name: "unknown app", spec: JobSpec{App: "linpack", Mode: "hybrid"},
			fields: []string{"app"}, reason: `unknown app "linpack"`},
		{name: "missing mode", spec: JobSpec{App: "ep"},
			fields: []string{"mode"}, reason: "required"},
		{name: "unknown mode", spec: JobSpec{App: "ep", Mode: "mpi"},
			fields: []string{"mode"}, reason: `unknown mode "mpi"`},
		{name: "unknown fabric", spec: JobSpec{App: "ep", Mode: "hybrid", Fabric: "infiniband"},
			fields: []string{"fabric"}, reason: "unknown fabric"},
		{name: "negative nodes", spec: JobSpec{App: "ep", Mode: "hybrid", Nodes: -2},
			fields: []string{"nodes"}, reason: ">= 1"},
		{name: "negative threads", spec: JobSpec{App: "ep", Mode: "hybrid", ThreadsPerNode: -1},
			fields: []string{"threads_per_node"}, reason: ">= 1"},
		{name: "negative cpus", spec: JobSpec{App: "ep", Mode: "hybrid", CPUsPerNode: -1},
			fields: []string{"cpus_per_node"}, reason: ">= 1"},
		{name: "valid figure point", spec: JobSpec{App: "md", Mode: "hybrid", CPUsPerNode: 1, Scale: "paper"}},
		{name: "valid directive", spec: JobSpec{App: "critical", Mode: "sdsm"}},
		{name: "unknown scale", spec: JobSpec{App: "cg", Mode: "hybrid", Scale: "papr"},
			fields: []string{"scale"}, reason: `unknown scale "papr" (valid: bench, paper`},
		{name: "scale without figure sizes", spec: JobSpec{App: "critical", Mode: "hybrid", Scale: "bench"},
			fields: []string{"scale"}, reason: "no figure sizes"},
		{name: "valid bench size of a tasking kernel", spec: JobSpec{App: "quad", Mode: "hybrid", Scale: "bench"}},
		{name: "valid NPB class", spec: JobSpec{App: "cg", Mode: "sdsm", Scale: "W"}},
		{name: "taskdep on its own machine", spec: JobSpec{App: "taskdep", Mode: "hybrid", Hetero: "fasthalf"}},
		{name: "taskdep on another machine", spec: JobSpec{App: "taskdep", Mode: "hybrid", Hetero: "slow1"},
			fields: []string{"hetero"}, reason: `always runs on the "fasthalf" machine, got "slow1"`},
		{name: "negative lanes", spec: JobSpec{App: "ep", Mode: "hybrid", Lanes: -3},
			fields: []string{"lanes"}, reason: "must be 0 or absent"},
		{name: "positive lanes", spec: JobSpec{App: "ep", Mode: "hybrid", Lanes: 2},
			fields: []string{"lanes"}, reason: "must be 0 or absent"},
		{name: "negative seed", spec: JobSpec{App: "ep", Mode: "hybrid", Seed: -1},
			fields: []string{"seed"}, reason: "positive"},
		{name: "unknown profile", spec: JobSpec{App: "ep", Mode: "hybrid", FaultProfile: "meteor"},
			fields: []string{"fault_profile"}, reason: `unknown fault profile "meteor"`},
		{name: "valid hetero profile", spec: JobSpec{App: "ep", Mode: "hybrid", Hetero: "fasthalf"}},
		{name: "unknown hetero profile", spec: JobSpec{App: "ep", Mode: "hybrid", Hetero: "gpufarm"},
			fields: []string{"hetero"}, reason: `unknown hetero profile "gpufarm"`},
		{name: "crash syntax", spec: JobSpec{App: "ep", Mode: "hybrid", Crash: "1-at-2"},
			fields: []string{"crash"}, reason: "want node@barrier"},
		{name: "crash node out of range", spec: JobSpec{App: "ep", Mode: "hybrid", Crash: "9@1"},
			fields: []string{"crash"}},
		{name: "crash node zero", spec: JobSpec{App: "ep", Mode: "hybrid", Crash: "0@1"},
			fields: []string{"crash"}},
		{name: "several fields at once",
			spec:   JobSpec{App: "nope", Mode: "nope", Fabric: "nope", Nodes: -1, FaultProfile: "nope"},
			fields: []string{"app", "fabric", "fault_profile", "mode", "nodes"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.fields == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var se *JobSpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate() = %v (%T), want *JobSpecError", err, err)
			}
			var got []string
			for _, f := range se.Fields {
				got = append(got, f.Field)
			}
			sort.Strings(got)
			want := append([]string(nil), tc.fields...)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("invalid fields = %v, want %v (err: %v)", got, want, se)
			}
			if tc.reason != "" && !strings.Contains(se.Error(), tc.reason) {
				t.Fatalf("error %q does not mention %q", se.Error(), tc.reason)
			}
		})
	}
}

func TestJobSpecCanonicalization(t *testing.T) {
	base := validSpec()

	// The client handle never participates in job identity.
	withID := base
	withID.ID = "my-job"
	if withID.Fingerprint() != base.Fingerprint() {
		t.Errorf("ID changed the fingerprint")
	}

	// Explicit defaults fingerprint like omitted ones.
	explicit := JobSpec{App: "ep", Mode: "hybrid", Fabric: "via", Nodes: 4, ThreadsPerNode: 1, CPUsPerNode: 2, Seed: 1}
	if explicit.Fingerprint() != base.Fingerprint() {
		t.Errorf("explicit defaults fingerprint differently:\n%s\n%s", explicit.Canonical(), base.Canonical())
	}

	// lockmix always runs with lock caching, however the spec spells it.
	lm := JobSpec{App: "lockmix", Mode: "hybrid"}
	if !lm.Normalize().LockCaching {
		t.Errorf("lockmix must normalize to LockCaching=true")
	}
	lmExplicit := lm
	lmExplicit.LockCaching = true
	if lm.Fingerprint() != lmExplicit.Fingerprint() {
		t.Errorf("lockmix fingerprint depends on redundant lock_caching field")
	}

	// "uniform" is the explicit spelling of the default machine.
	hu := base
	hu.Hetero = "uniform"
	if hu.Fingerprint() != base.Fingerprint() {
		t.Errorf(`hetero "uniform" fingerprints differently from the default`)
	}

	// Crash schedules canonicalize whitespace.
	c1, c2 := base, base
	c1.Crash, c2.Crash = "1@1, 2@3", "1@1,2@3"
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Errorf("crash schedule whitespace changed the fingerprint")
	}

	// Canonical strings and fingerprints key the cache and the WAL, so
	// they are pinned byte for byte: plain, faulted+policy, crash+hetero.
	for _, pin := range []struct {
		spec       JobSpec
		canon, hex string
	}{
		{JobSpec{App: "cg", Mode: "hybrid"},
			"parade-fleet/v1 app=cg mode=hybrid fabric=via nodes=4 threads=1 lanes=0 seed=1 lockcache=false faults= crash= policy=",
			"0c4ea5efdb6d3e5f"},
		{JobSpec{App: "md", Mode: "sdsm", Fabric: "tcp", Nodes: 8, Seed: 7, FaultProfile: "chaos", Policy: "adaptive"},
			"parade-fleet/v1 app=md mode=sdsm fabric=tcp nodes=8 threads=1 lanes=0 seed=7 lockcache=false faults=chaos crash= policy=adaptive",
			"1aa9a492bd5aafe4"},
		{JobSpec{App: "lockmix", Mode: "hybrid", ThreadsPerNode: 2, Crash: " 1@1 , 1@3 ", Hetero: "slow1"},
			"parade-fleet/v1 app=lockmix mode=hybrid fabric=via nodes=4 threads=2 lanes=0 seed=1 lockcache=true faults= crash=1@1,1@3 policy= hetero=slow1",
			"3a577daee78bf662"},
	} {
		if got := pin.spec.Canonical(); got != pin.canon {
			t.Errorf("Canonical() = %q, pinned %q", got, pin.canon)
		}
		if got := pin.spec.FingerprintHex(); got != pin.hex {
			t.Errorf("FingerprintHex() of %q = %s, pinned %s", pin.canon, got, pin.hex)
		}
	}

	// Distinct configurations must canonicalize distinctly.
	distinct := []JobSpec{
		base,
		{App: "cg", Mode: "hybrid"},
		{App: "ep", Mode: "sdsm"},
		{App: "ep", Mode: "hybrid", Fabric: "tcp"},
		{App: "ep", Mode: "hybrid", Nodes: 8},
		{App: "ep", Mode: "hybrid", ThreadsPerNode: 2},
		{App: "ep", Mode: "hybrid", Seed: 2},
		{App: "ep", Mode: "hybrid", FaultProfile: "drop"},
		{App: "ep", Mode: "hybrid", Crash: "1@1"},
		{App: "ep", Mode: "hybrid", Hetero: "fasthalf"},
		{App: "ep", Mode: "hybrid", Hetero: "slow1"},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		canon := s.Canonical()
		if j, dup := seen[canon]; dup {
			t.Errorf("specs %d and %d share canonical %q", i, j, canon)
		}
		seen[canon] = i
	}
}

func TestSpecMatrixExpand(t *testing.T) {
	specs := SpecMatrix{
		Apps: []string{"ep", "cg"}, Modes: []string{"hybrid"},
		Profiles: []string{"", "drop"}, Crashes: []string{"", "1@1"},
	}.Expand()
	// Per app: (profile "", crash ""), ("", "1@1"), ("drop", "") — the
	// drop+crash combination is skipped.
	if len(specs) != 6 {
		t.Fatalf("Expand() = %d specs, want 6", len(specs))
	}
	for _, s := range specs {
		if s.FaultProfile != "" && s.Crash != "" {
			t.Errorf("Expand() emitted a fault+crash cell: %s", s.Canonical())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Expand() emitted invalid spec %s: %v", s.Canonical(), err)
		}
	}
	if !sort.SliceIsSorted(specs, func(i, j int) bool {
		return specs[i].Canonical() < specs[j].Canonical()
	}) {
		t.Errorf("Expand() output not in canonical order")
	}
}

func TestCacheCollisionGuard(t *testing.T) {
	c := NewCache(4)
	res := JobResult{Status: StatusOK, ResultBits: "aa"}
	c.Put(42, "canonical-A", res)

	// Same fingerprint, different canonical config: must be a miss, never
	// the stored result.
	if _, ok := c.Get(42, "canonical-B"); ok {
		t.Fatalf("collision returned a foreign result")
	}
	st := c.Stats()
	if st.Collisions != 1 {
		t.Errorf("collisions = %d, want 1", st.Collisions)
	}
	if got, ok := c.Get(42, "canonical-A"); !ok || got.ResultBits != "aa" {
		t.Errorf("true key lookup failed after collision: %+v ok=%v", got, ok)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "one", JobResult{ResultBits: "1"})
	c.Put(2, "two", JobResult{ResultBits: "2"})
	if _, ok := c.Get(1, "one"); !ok { // promote 1 to MRU
		t.Fatalf("entry 1 missing before eviction")
	}
	c.Put(3, "three", JobResult{ResultBits: "3"}) // evicts 2 (LRU)
	if _, ok := c.Get(2, "two"); ok {
		t.Errorf("LRU entry 2 survived eviction")
	}
	if _, ok := c.Get(1, "one"); !ok {
		t.Errorf("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(3, "three"); !ok {
		t.Errorf("newest entry 3 missing")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 {
		t.Errorf("stats = %+v, want 1 eviction and len 2", st)
	}

	// Re-putting an existing key updates in place, no eviction.
	c.Put(3, "three", JobResult{ResultBits: "3b"})
	if got, _ := c.Get(3, "three"); got.ResultBits != "3b" {
		t.Errorf("in-place update lost: %+v", got)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("in-place update evicted: %+v", st)
	}
}

func TestExecutorInvalidSpecNeverExecutes(t *testing.T) {
	exec := &Executor{}
	res, err := exec.Run(JobSpec{App: "nope", Mode: "hybrid"})
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if res.Status != StatusInvalid || len(res.InvalidFields) == 0 {
		t.Fatalf("Run() = %+v, want StatusInvalid with field detail", res)
	}
	if exec.Executions() != 0 {
		t.Fatalf("invalid spec executed (%d executions)", exec.Executions())
	}
}

// TestExecutorRunsFigurePoints: a figure point is a cell, so the fleet
// runs it at the figure's problem size through the same cell runner the
// figures use — Fig. 11's 1Thread-1CPU point at two nodes, served.
func TestExecutorRunsFigurePoints(t *testing.T) {
	res, err := (&Executor{}).Run(JobSpec{App: "md", Mode: "hybrid", Nodes: 2, CPUsPerNode: 1, Scale: harness.ScaleBench})
	if err != nil || res.Status != StatusOK {
		t.Fatalf("Run() = %+v, %v", res, err)
	}
	fig, err := harness.ByID(11, []int{2}, harness.ScaleBench)
	if err != nil {
		t.Fatal(err)
	}
	if s := fig.Series[0]; s.Label != "1Thread-1CPU" || s.Y[0] != sim.Duration(res.KernelNs).Seconds() {
		t.Fatalf("served kernel time %d ns, Fig. 11 %s at 2 nodes %v s", res.KernelNs, s.Label, s.Y[0])
	}
	if !strings.HasSuffix(res.Config, " cpus=1 scale=bench") {
		t.Errorf("canonical %q does not name the figure axes", res.Config)
	}
}

func TestExecutorDeterminism(t *testing.T) {
	// Two independent executors must agree bit-for-bit on the same spec —
	// the property the dedupe cache's exactness argument rests on.
	spec := JobSpec{App: "ep", Mode: "hybrid", FaultProfile: "drop"}
	a, err := (&Executor{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Executor{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusOK || b.Status != StatusOK {
		t.Fatalf("statuses %s/%s, want ok/ok (%s %s)", a.Status, b.Status, a.Error, b.Error)
	}
	if d := diffResults(a, b); d != "" {
		t.Fatalf("independent runs differ: %s", d)
	}
	if a.StateFingerprint == "" || a.MemHash == "" || a.ResultBits == "" {
		t.Fatalf("missing fingerprints: %+v", a)
	}
}

// TestExecutorLockmixTwoThreads serves the cell that used to panic with
// an INVALID -> DIRTY page transition (two threads per node, cached lock
// tokens; harness.TestLockmixTwoThreadsLockCaching has the mechanism).
func TestExecutorLockmixTwoThreads(t *testing.T) {
	for _, mode := range harness.MatrixModes() {
		res, err := (&Executor{}).Run(JobSpec{App: "lockmix", Mode: mode, Nodes: 8, ThreadsPerNode: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusOK {
			t.Fatalf("%s: status %s: %s", mode, res.Status, res.Error)
		}
		// ResultBits is fpBits(Sum, Expected).
		if len(res.ResultBits) != 32 || res.ResultBits[:16] != res.ResultBits[16:] {
			t.Errorf("%s: Sum != Expected (result bits %s)", mode, res.ResultBits)
		}
	}
}

// TestServingSpecTable pins SERVING.md's job-spec table to the struct it
// documents: one row per JSON tag of JobSpec, no row without a tag.
func TestServingSpecTable(t *testing.T) {
	doc, err := os.ReadFile("../../SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Job-spec schema")
	if !ok {
		t.Fatal("SERVING.md has no Job-spec schema section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows[name] = line
		}
	}
	// The retired lanes key is still parsed, only to be rejected.
	if !strings.Contains(rows["lanes"], "must be 0 or absent") {
		t.Errorf("SERVING.md's lanes row does not say the key must be 0 or absent: %q", rows["lanes"])
	}
	typ := reflect.TypeOf(JobSpec{})
	for i := 0; i < typ.NumField(); i++ {
		tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if _, ok := rows[tag]; !ok {
			t.Errorf("JobSpec.%s (json %q) has no row in SERVING.md's job-spec table", typ.Field(i).Name, tag)
		}
		delete(rows, tag)
	}
	for name := range rows {
		t.Errorf("SERVING.md's job-spec table documents %q, which is not a JobSpec field", name)
	}
}
