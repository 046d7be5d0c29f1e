package parade_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/kdsm"
	"parade/internal/netsim"
	"parade/internal/obs"
)

// metricsDoc is a parade-metrics/v1 document with the sections the pin
// compares byte for byte kept raw.
type metricsDoc struct {
	Schema     string             `json:"schema"`
	Nodes      int                `json:"nodes"`
	PerNode    []map[string]int64 `json:"per_node"`
	Histograms []json.RawMessage  `json:"histograms"`
	Phases     json.RawMessage    `json:"phases"`
	Serial     json.RawMessage    `json:"serial"`
	Total      json.RawMessage    `json:"total"`
	Lanes      []json.RawMessage  `json:"lanes"`
}

// TestMetricsJSONSupersetOfParent pins the -metrics document across the
// move to one counter registry. testdata/metrics_*.json were captured at
// the parent commit (f935593) with
//
//	parade-run -app helmholtz -metrics F
//	parade-run -app taskdep -hetero fasthalf -metrics F
//	parade-run -app lockmix -mode kdsm -metrics F
//
// Every per-node key/value of the capture must still be present and
// equal, histograms, phases, serial and total byte for byte; new keys
// may appear. The two exceptions are the counters whose per-node view
// was wrong: page_fetches_issued missed prefetch and refresh pulls (it
// may only grow, and now sums to page_fetches_served), and sdsm_barriers
// repeated the global barrier count on every node (now the master's row
// only). A third counter moved for lane safety rather than correctness:
// lock_waits is tallied where the wait is seen, in the queue at the
// lock's manager, because the requester's row belongs to another lane;
// its sum over the nodes is pinned (the lockmix cell is the one that
// takes SDSM locks). The lane sections are host time and are not
// compared.
func TestMetricsJSONSupersetOfParent(t *testing.T) {
	run := map[string]func(core.Config) (core.Report, error){
		"testdata/metrics_helmholtz.json": func(cfg core.Config) (core.Report, error) {
			r, err := apps.RunHelmholtz(cfg, apps.HelmholtzDefault())
			return r.Report, err
		},
		"testdata/metrics_taskdep_fasthalf.json": func(cfg core.Config) (core.Report, error) {
			var err error
			if cfg.Hetero, err = netsim.HeteroByName("fasthalf", cfg.Nodes); err != nil {
				return core.Report{}, err
			}
			r, err := apps.RunTaskdep(cfg, apps.TaskdepDefault())
			return r.Report, err
		},
		"testdata/metrics_lockmix_kdsm.json": func(cfg core.Config) (core.Report, error) {
			r, err := apps.RunLockmix(kdsm.FromParade(cfg), apps.LockmixDefault())
			return r.Report, err
		},
	}
	for path, app := range run {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want, got metricsDoc
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		// parade-run's defaults; the capture's lane count (-lanes auto).
		cfg := core.Config{Nodes: want.Nodes, ThreadsPerNode: 1, CPUsPerNode: 2,
			Mode: core.Hybrid, HomeMigration: true, Lanes: len(want.Lanes)}.WithDefaults()
		cfg.Obs = obs.New(cfg.Nodes)
		rep, err := app(cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		if err := rep.Obs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("%s: new document: %v", path, err)
		}
		if got.Schema != want.Schema || got.Nodes != want.Nodes || len(got.PerNode) != len(want.PerNode) {
			t.Fatalf("%s: schema %q nodes %d rows %d, want %q %d %d", path,
				got.Schema, got.Nodes, len(got.PerNode), want.Schema, want.Nodes, len(want.PerNode))
		}
		var issued, served, waits, wantWaits int64
		for n, row := range want.PerNode {
			for key, v := range row {
				g, ok := got.PerNode[n][key]
				switch {
				case !ok:
					t.Errorf("%s: node %d lost key %q", path, n, key)
				case key == "page_fetches_issued":
					if g < v {
						t.Errorf("%s: node %d page_fetches_issued fell %d -> %d", path, n, v, g)
					}
				case key == "sdsm_barriers":
					if n == 0 && g != v || n > 0 && g != 0 {
						t.Errorf("%s: node %d sdsm_barriers = %d (parent %d): want the global count on the master only", path, n, g, v)
					}
				case key == "lock_waits":
					waits, wantWaits = waits+g, wantWaits+v
				case g != v:
					t.Errorf("%s: node %d %s = %d, parent had %d", path, n, key, g, v)
				}
			}
			issued += got.PerNode[n]["page_fetches_issued"]
			served += got.PerNode[n]["page_fetches_served"]
		}
		if issued != served {
			t.Errorf("%s: %d fetches issued, %d served", path, issued, served)
		}
		if waits != wantWaits {
			t.Errorf("%s: %d lock waits over the nodes, parent had %d", path, waits, wantWaits)
		}
		for name, pair := range map[string][2]json.RawMessage{
			"phases": {want.Phases, got.Phases}, "serial": {want.Serial, got.Serial}, "total": {want.Total, got.Total},
		} {
			if !bytes.Equal(pair[0], pair[1]) {
				t.Errorf("%s: %s differs from the parent's:\n%s\n--- now\n%s", path, name, pair[0], pair[1])
			}
		}
		// The last histogram of a lane run is lane_sync_latency (host time).
		hw, hg := want.Histograms, got.Histograms
		if len(hw) != len(hg) {
			t.Fatalf("%s: %d histograms, parent had %d", path, len(hg), len(hw))
		}
		for i := range hw[:len(hw)-1] {
			if !bytes.Equal(hw[i], hg[i]) {
				t.Errorf("%s: histogram %d differs from the parent's:\n%s\n--- now\n%s", path, i, hw[i], hg[i])
			}
		}
	}
}
