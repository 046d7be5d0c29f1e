// Package kdsm configures the runtime as the paper's baseline: KDSM, a
// conventional home-based lazy-release-consistency SDSM (Yun et al.,
// IWSDSM'01) with fixed homes and lock-based synchronization. The paper's
// microbenchmarks (Figs. 6 and 7) compare ParADE's hybrid directives
// against this system; everything except the directive lowering and home
// migration is shared with the ParADE runtime, which isolates exactly the
// mechanisms the paper credits for its speedups.
package kdsm

import "parade/internal/core"

// Config returns a KDSM-equivalent configuration: SDSM-mode directive
// lowering (distributed locks, flag-based singles, slot-array
// reductions) and the original fixed-home HLRC protocol.
func Config(nodes, threadsPerNode, cpusPerNode int) core.Config {
	cfg := core.Config{
		Nodes:          nodes,
		ThreadsPerNode: threadsPerNode,
		CPUsPerNode:    cpusPerNode,
		Mode:           core.SDSM,
		HomeMigration:  false,
	}
	return cfg.WithDefaults()
}

// ConfigCached returns KDSM with its efficient lazy-release lock
// protocol (the contribution of the KDSM paper itself): lock tokens stay
// cached at the releasing node until another node asks.
func ConfigCached(nodes, threadsPerNode, cpusPerNode int) core.Config {
	cfg := Config(nodes, threadsPerNode, cpusPerNode)
	cfg.LockCaching = true
	return cfg
}
