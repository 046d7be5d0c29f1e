package main

import (
	"reflect"
	"strings"
	"testing"

	"parade/internal/core"
	"parade/internal/kdsm"
	"parade/internal/netsim"
)

// defaults are the flag defaults of main.
func defaults() clusterFlags {
	return clusterFlags{nodes: 4, tpn: 1, cpus: 2, mode: "parade", fabric: "via", faultSeed: 1, lanes: "off"}
}

// TestClusterConfigResolvesNames: -mode and -fabric select exactly the
// configurations their documented values name, and anything else is an
// error naming the valid values — not a silent run of the default
// (-mode sdsm used to run hybrid, -fabric tpc used to run VIA).
func TestClusterConfigResolvesNames(t *testing.T) {
	base := core.Config{Nodes: 4, ThreadsPerNode: 1, CPUsPerNode: 2,
		Mode: core.Hybrid, HomeMigration: true}.WithDefaults()
	tcp := base
	tcp.Fabric = netsim.TCP()
	for _, tc := range []struct {
		name string
		set  func(*clusterFlags)
		want core.Config
	}{
		{"defaults", func(*clusterFlags) {}, base},
		{"-mode kdsm", func(f *clusterFlags) { f.mode = "kdsm" }, kdsm.FromParade(base)},
		{"-fabric tcp", func(f *clusterFlags) { f.fabric = "tcp" }, tcp},
	} {
		f := defaults()
		tc.set(&f)
		got, err := clusterConfig(f)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: clusterConfig = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name    string
		set     func(*clusterFlags)
		mention []string
	}{
		{"-mode sdsm", func(f *clusterFlags) { f.mode = "sdsm" }, []string{`"sdsm"`, "parade", "kdsm"}},
		{"-mode bogus", func(f *clusterFlags) { f.mode = "bogus" }, []string{`"bogus"`, "parade", "kdsm"}},
		{"-fabric tpc", func(f *clusterFlags) { f.fabric = "tpc" }, []string{`"tpc"`, "via", "tcp"}},
		{"-faults bogus", func(f *clusterFlags) { f.faults = "bogus" }, []string{`"bogus"`, "drop"}},
		{"-hetero bogus", func(f *clusterFlags) { f.hetero = "bogus" }, []string{`"bogus"`, "fasthalf"}},
		{"-crash bogus", func(f *clusterFlags) { f.crash = "bogus" }, []string{`"bogus"`, "node@barrier"}},
		{"-lanes bogus", func(f *clusterFlags) { f.lanes = "bogus" }, []string{`"bogus"`, "auto"}},
	} {
		f := defaults()
		tc.set(&f)
		_, err := clusterConfig(f)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, m := range tc.mention {
			if !strings.Contains(err.Error(), m) {
				t.Errorf("%s: error %q does not mention %s", tc.name, err, m)
			}
		}
	}
}
