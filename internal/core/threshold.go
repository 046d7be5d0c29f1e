package core

import (
	"math/bits"

	"parade/internal/hlrc"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// AutoThreshold derives the small-structure threshold of §5.2.1 from
// first principles: "The threshold is dependent on the startup cost of
// message-passing operations and the overhead of creating a twin and
// diffs for a page." It returns the largest 8-byte-aligned object size
// for which one update-protocol round (an allreduce of the object) is
// cheaper than one invalidate-protocol round (the lock round trip, page
// invalidation, page fetch on next access, twin, and diff scan that a
// lock-based critical pays).
//
// For the paper's cLAN VIA cluster this lands in the hundreds of bytes —
// the paper chose 256 — and it shrinks as nodes are added (collectives
// get deeper) or as the fabric gets slower per byte.
func AutoThreshold(fabric netsim.Fabric, nodes int) int {
	if nodes < 2 {
		// No network on one node; any size may use the local fast path.
		return 1 << 20
	}
	invalidate := invalidatePathCost(fabric)
	// Find the largest size whose collective cost stays below it.
	best := 0
	for size := 8; size <= 1<<20; size *= 2 {
		if updatePathCost(fabric, nodes, size) <= invalidate {
			best = size
		} else {
			break
		}
	}
	// Refine within [best, 2*best) in 8-byte steps.
	for size := best + 8; size < best*2; size += 8 {
		if updatePathCost(fabric, nodes, size) <= invalidate {
			best = size
		} else {
			break
		}
	}
	if best < 8 {
		best = 8
	}
	return best
}

// updatePathCost models one allreduce of `size` bytes over `nodes` ranks
// (recursive doubling: log2 rounds, each sending AND receiving the
// object, so the payload is processed twice per round).
func updatePathCost(fabric netsim.Fabric, nodes, size int) sim.Duration {
	rounds := bits.Len(uint(nodes - 1))
	byteCost := sim.Duration(2 * int64(size+fabric.HeaderBytes) * int64(sim.Second) / fabric.BandwidthBps)
	perMsg := fabric.SendOverhead + fabric.RecvOverhead + fabric.Latency + byteCost
	return sim.Duration(rounds) * perMsg
}

// invalidatePathCost models the conventional critical's per-operation
// synchronization overhead: the lock request/grant round trip plus the
// twin, diff scan, and diff/release messages of the release. The page
// fetch on the next access is excluded — it amortizes over accesses —
// which keeps the derived threshold conservative, as the paper's choice
// of 256 bytes is.
func invalidatePathCost(fabric netsim.Fabric) sim.Duration {
	msg := func(bytes int) sim.Duration {
		return fabric.SendOverhead + fabric.RecvOverhead + fabric.Latency +
			sim.Duration(int64(bytes+fabric.HeaderBytes)*int64(sim.Second)/fabric.BandwidthBps)
	}
	lockRTT := 2 * msg(16)
	diffs := hlrc.CostTwinCreate + hlrc.CostDiffScan + msg(128) + hlrc.CostDiffApply
	return lockRTT + diffs + hlrc.CostFaultHandler + 2*hlrc.CostLockManage
}
