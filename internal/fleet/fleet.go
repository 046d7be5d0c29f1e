// Package fleet is the long-running sweep service behind parade-serve:
// batches of simulation jobs (a scenario matrix of app × mode × fabric ×
// fault profile × crash schedule × node count × policy) arrive over
// HTTP/JSONL, are validated into typed JobSpecs, deduplicated by a
// canonical config fingerprint against an LRU result cache, and executed
// on a bounded worker pool with work-stealing admission. Results stream
// back as JSONL; service health and throughput are exported on a
// Prometheus-style /metrics endpoint wired to internal/obs.
//
// The dedupe cache leans on the determinism the rest of the repo
// enforces: a run is a pure function of its configuration (bit-identical
// at any GOMAXPROCS and host schedule — the single event loop of
// DESIGN.md §6c), so two jobs whose canonical configurations are equal
// provably have equal results, and a cache hit can return the stored
// report without re-execution. parade-bench -matrix ... -via serves the
// acceptance matrices through the service and checks exactly that
// (Replay). See SERVING.md for the serving surface.
package fleet

import (
	"sort"

	"parade/internal/harness"
)

// JobSpec is one simulation job as submitted by a client. It is a
// harness.Cell — the one declaration of a scenario — under the name the
// serving surface uses: the JSON keys are Cell's tags, and Normalize,
// Validate, BuildConfig, Canonical and Fingerprint are Cell's methods.
type JobSpec = harness.Cell

// FieldError locates one invalid field of a JobSpec by its JSON key (the
// invalid_fields entries of a result line).
type FieldError = harness.FieldError

// JobSpecError is the typed validation error for a malformed JobSpec,
// with field-level detail.
type JobSpecError = harness.CellError

// SpecMatrix expands a scenario matrix into the cross product of its
// dimensions, in canonical order. An empty app or mode dimension selects
// every value; any other empty dimension selects the JobSpec default
// alone.
type SpecMatrix struct {
	Apps     []string // default: all matrix apps
	Modes    []string // default: hybrid, sdsm
	Fabrics  []string // default: the spec default only
	Profiles []string // default: "" (ideal fabric) only
	Crashes  []string // default: "" (no crashes) only
	Nodes    []int    // default: the spec default only
	Policies []string // default: "" (legacy) only
	Seed     int64    // default: the spec default
}

// Expand returns the job specs of the matrix's cross product.
func (m SpecMatrix) Expand() []JobSpec {
	apps := m.Apps
	if len(apps) == 0 {
		apps = harness.MatrixAppNames()
	}
	modes := m.Modes
	if len(modes) == 0 {
		modes = harness.MatrixModes()
	}
	var specs []JobSpec
	for _, app := range apps {
		for _, mode := range modes {
			for _, fabric := range orZero(m.Fabrics) {
				for _, prof := range orZero(m.Profiles) {
					for _, crash := range orZero(m.Crashes) {
						if prof != "" && crash != "" {
							// The acceptance matrices exercise link faults and
							// crash-stop failures separately; mirror that.
							continue
						}
						for _, n := range orZero(m.Nodes) {
							for _, pol := range orZero(m.Policies) {
								specs = append(specs, JobSpec{
									App: app, Mode: mode, Fabric: fabric,
									FaultProfile: prof, Crash: crash,
									Nodes: n, Seed: m.Seed, Policy: pol,
								}.Normalize())
							}
						}
					}
				}
			}
		}
	}
	sort.SliceStable(specs, func(i, j int) bool {
		return specs[i].Canonical() < specs[j].Canonical()
	})
	return specs
}

// orZero returns an unselected dimension as its one zero value, which
// JobSpec.Normalize turns into the scenario default.
func orZero[T any](vals []T) []T {
	if len(vals) == 0 {
		return make([]T, 1)
	}
	return vals
}
