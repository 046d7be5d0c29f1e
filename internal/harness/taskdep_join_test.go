package harness

import (
	"fmt"
	"math"
	"testing"
	"time"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/netsim"
)

// TestTaskdepJoinRace is the regression test for the collective-join
// termination race: on the legacy kernel the cluster-wide live-task
// count is transiently zero while some team threads are still on their
// way to Taskwait, so a fast thread could leave the join, enter the
// result collective, and never execute the Target tasks later pushed to
// its node — tasks pinned there that no other node may run (the
// remaining threads then spin on guaranteed-miss steals forever). The
// TCP fabric's timing with the small test workload reproduces exactly
// that interleaving; the join's team-arrival target makes it terminate,
// and a rerun must agree bit-for-bit on the results and the DSM
// fingerprint.
func TestTaskdepJoinRace(t *testing.T) {
	hetero, err := netsim.HeteroByName("fasthalf", 4)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for run := 0; run < 2; run++ {
		cfg := core.Config{
			Nodes: 4, ThreadsPerNode: 1, CPUsPerNode: 2,
			Mode: core.Hybrid, HomeMigration: true,
			// A generous wall-clock bound: the run takes milliseconds, so
			// hitting the deadline means the join livelocked again.
			Deadline: 60 * time.Second,
		}.WithDefaults()
		cfg.Fabric = netsim.TCP()
		cfg.Hetero = hetero
		r, err := apps.RunTaskdep(cfg, apps.TaskdepTest())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := fmt.Sprintf("pipe=%x offload=%x check=%x mem=%016x",
			math.Float64bits(r.PipeSum), math.Float64bits(r.OffloadSum),
			math.Float64bits(r.CheckSum), r.Report.MemHash)
		if run == 0 {
			want = got
		} else if got != want {
			t.Errorf("rerun diverged:\n got %s\nwant %s", got, want)
		}
	}
}
