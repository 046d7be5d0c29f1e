package apps

import (
	"math"

	"parade/internal/core"
	"parade/internal/sim"
)

// The NAS EP kernel (§6.2): generate pairs of uniform deviates with the
// NPB LCG, accept those inside the unit circle, convert them to Gaussian
// deviates with the polar method, and tally sums and annulus counts.
// "Embarrassingly parallel": there is essentially no shared memory, and
// the only communication is the terminal reduction — which ParADE's
// translator lowers to a single collective over the merged accumulator
// struct (sx, sy, q[0..9]), per §4.2's merged-reduction rule.

// EPClass parameterizes the kernel: 2^M pairs.
type EPClass struct {
	Name    string
	M       int
	PerPair sim.Duration // virtual cost per generated pair
}

// EP problem classes. T is test-sized; S/W/A follow NPB 2.3 (A = 2^28).
var (
	EPClassT = EPClass{Name: "T", M: 16, PerPair: 200 * sim.Nanosecond}
	EPClassS = EPClass{Name: "S", M: 24, PerPair: 200 * sim.Nanosecond}
	EPClassW = EPClass{Name: "W", M: 25, PerPair: 200 * sim.Nanosecond}
	EPClassA = EPClass{Name: "A", M: 28, PerPair: 200 * sim.Nanosecond}
)

// epBlockBits is the log2 of pairs per work block (NPB's MK).
const epBlockBits = 12

// EPResult is the outcome of one EP run.
type EPResult struct {
	Sx, Sy     float64
	Counts     [10]float64 // Gaussian deviates per annulus
	Accepted   float64
	KernelTime sim.Duration
	Report     core.Report
}

// RunEP executes the EP kernel under cfg.
func RunEP(cfg core.Config, class EPClass) (EPResult, error) {
	cfg = cfg.WithDefaults()
	var res EPResult
	rep, err := core.Run(cfg, func(m *core.Thread) {
		blocks := 1 << (class.M - epBlockBits)
		pairsPerBlock := int64(1) << epBlockBits
		var t0 sim.Time

		m.Parallel(func(tc *core.Thread) {
			tc.Master(func() { t0 = tc.Now() })
			var sx, sy float64
			var q [10]float64
			tc.ForCostNowait(0, blocks, class.PerPair*sim.Duration(pairsPerBlock), func(b int) {
				// Jump the LCG to this block's stream.
				seed := PowLC(DefaultSeed, LCGA, 2*pairsPerBlock*int64(b))
				for k := int64(0); k < pairsPerBlock; k++ {
					x1 := 2*Randlc(&seed, LCGA) - 1
					x2 := 2*Randlc(&seed, LCGA) - 1
					t := x1*x1 + x2*x2
					if t > 1 {
						continue
					}
					tt := math.Sqrt(-2 * math.Log(t) / t)
					gx := x1 * tt
					gy := x2 * tt
					l := int(math.Max(math.Abs(gx), math.Abs(gy)))
					if l > 9 {
						l = 9
					}
					q[l]++
					sx += gx
					sy += gy
				}
			})
			// Merged-structure reduction: sx, sy, and the ten annulus
			// counters combine in ONE collective per §4.2 (or one
			// slot-array exchange in the SDSM baseline).
			contrib := make([]float64, 12)
			contrib[0], contrib[1] = sx, sy
			copy(contrib[2:], q[:])
			total := tc.ReduceVec("ep-acc", core.OpSum, contrib)
			tc.Master(func() {
				res.Sx, res.Sy = total[0], total[1]
				copy(res.Counts[:], total[2:])
			})
		})
		for _, v := range res.Counts {
			res.Accepted += v
		}
		res.KernelTime = sim.Duration(m.Now() - t0)
	})
	if err != nil {
		// A canceled run's partial report (counters, timing to the abort
		// point) rides along with the error for the -timeout stats dump.
		return EPResult{Report: rep}, err
	}
	res.Report = rep
	return res, nil
}
