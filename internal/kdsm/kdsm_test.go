package kdsm

import (
	"testing"

	"parade/internal/core"
)

func TestConfigIsConventionalSDSM(t *testing.T) {
	cfg := Config(4, 2, 2)
	if cfg.Mode != core.SDSM {
		t.Fatalf("mode = %v", cfg.Mode)
	}
	if cfg.HomeMigration {
		t.Fatal("KDSM must use fixed homes")
	}
	if cfg.Nodes != 4 || cfg.ThreadsPerNode != 2 || cfg.CPUsPerNode != 2 {
		t.Fatalf("shape = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKDSMRunsPrograms(t *testing.T) {
	var sum float64
	_, err := core.Run(Config(2, 2, 2), func(m *core.Thread) {
		s := m.Cluster().ScalarVar("x")
		m.Parallel(func(tc *core.Thread) {
			tc.Critical("c", []*core.Scalar{s}, func() { s.Add(tc, 1) })
		})
		m.Parallel(func(tc *core.Thread) {})
		sum = s.Get(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestConfigCached(t *testing.T) {
	cfg := ConfigCached(4, 1, 2)
	if !cfg.LockCaching || cfg.Mode != core.SDSM {
		t.Fatalf("cached config = %+v", cfg)
	}
}
