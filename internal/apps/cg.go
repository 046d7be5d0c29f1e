package apps

import (
	"math"
	"sort"

	"parade/internal/core"
	"parade/internal/sim"
)

// The NAS CG kernel (NPB 2.3, §6.2): estimate the smallest eigenvalue of
// a sparse symmetric positive-definite matrix with inverse power
// iteration, solving A z = x by 25 conjugate-gradient steps per outer
// iteration. The matrix is built, as in NPB's makea, as a weighted sum of
// outer products of random sparse vectors plus a unit diagonal (SPD by
// construction); the random stream is the NPB LCG. The generator here is
// a simplified makea (no banded reordering), so verification values are
// self-recorded goldens rather than the NPB reference zetas — the
// sharing pattern (read-only matrix, block-owned vectors, cluster-wide
// reads of p) is the same.

// CGClass parameterizes the kernel. PerNZ/PerVec are the virtual compute
// costs per matrix nonzero and per vector element, calibrated to the
// paper's Pentium-III nodes.
type CGClass struct {
	Name   string
	N      int     // matrix order
	NonZer int     // nonzeros per generated sparse vector
	NIter  int     // outer (power method) iterations
	Shift  float64 // eigenvalue shift
	CGIter int     // CG steps per outer iteration
	PerNZ  sim.Duration
	PerVec sim.Duration
}

// CG problem classes. T is a test-sized class; S/W/A follow NPB 2.3
// parameters (A's nonzer is 11; execution at class A is supported but
// slow in the simulator, so benches default to S).
var (
	CGClassT = CGClass{Name: "T", N: 240, NonZer: 5, NIter: 4, Shift: 6, CGIter: 25, PerNZ: 40 * sim.Nanosecond, PerVec: 20 * sim.Nanosecond}
	CGClassS = CGClass{Name: "S", N: 1400, NonZer: 7, NIter: 15, Shift: 10, CGIter: 25, PerNZ: 40 * sim.Nanosecond, PerVec: 20 * sim.Nanosecond}
	CGClassW = CGClass{Name: "W", N: 7000, NonZer: 8, NIter: 15, Shift: 12, CGIter: 25, PerNZ: 40 * sim.Nanosecond, PerVec: 20 * sim.Nanosecond}
	CGClassA = CGClass{Name: "A", N: 14000, NonZer: 11, NIter: 15, Shift: 20, CGIter: 25, PerNZ: 40 * sim.Nanosecond, PerVec: 20 * sim.Nanosecond}
)

// CGResult is the outcome of one CG run.
type CGResult struct {
	Zeta       float64
	RNorm      float64 // final residual norm of the last CG solve
	NZ         int     // nonzeros in the generated matrix
	KernelTime sim.Duration
	Report     core.Report
}

// RunCG executes the CG kernel under cfg.
func RunCG(cfg core.Config, class CGClass) (CGResult, error) {
	cfg = cfg.WithDefaults()
	// Size the pool like the paper's CG (64 MB at class A): matrix CSR +
	// five vectors + slack.
	nzCap := class.N*(class.NonZer+1)*(class.NonZer+1) + class.N
	need := nzCap*16 + (class.N+1)*8 + 6*class.N*8 + (1 << 20)
	if cfg.ShmBytes < need {
		cfg.ShmBytes = need
	}

	var res CGResult
	rep, err := core.Run(cfg, func(m *core.Thread) {
		c := m.Cluster()

		// Generate the sparse matrix serially on the master (setup, not
		// timed), then copy into shared CSR arrays.
		rows, nz := cgMakeMatrix(class)
		res.NZ = nz
		a := c.AllocF64(nz)
		colidx := c.AllocI64(nz)
		rowstr := c.AllocI64(class.N + 1)
		k := 0
		for i, row := range rows {
			rowstr.Set(m, i, int64(k))
			for _, e := range row {
				a.Set(m, k, e.v)
				colidx.Set(m, k, int64(e.col))
				k++
			}
		}
		rowstr.Set(m, class.N, int64(k))

		x := c.AllocF64(class.N)
		z := c.AllocF64(class.N)
		p := c.AllocF64(class.N)
		q := c.AllocF64(class.N)
		r := c.AllocF64(class.N)

		n := class.N
		avgRow := class.PerNZ * sim.Duration(nz/n+1)
		var t0 sim.Time

		m.Parallel(func(tc *core.Thread) {
			tc.ForCost(0, n, class.PerVec, func(i int) { x.Set(tc, i, 1.0) })
			tc.Master(func() { t0 = tc.Now() })

			for it := 1; it <= class.NIter; it++ {
				// conj_grad: solve A z = x.
				tc.ForCost(0, n, class.PerVec, func(i int) {
					xi := x.Get(tc, i)
					q.Set(tc, i, 0)
					z.Set(tc, i, 0)
					r.Set(tc, i, xi)
					p.Set(tc, i, xi)
				})
				lo, hi := tc.StaticRange(0, n)
				partial := 0.0
				for i := lo; i < hi; i++ {
					ri := r.Get(tc, i)
					partial += ri * ri
				}
				tc.Compute(class.PerVec * sim.Duration(hi-lo))
				rho := tc.Reduce("cg-rho", core.OpSum, partial)

				for cgit := 0; cgit < class.CGIter; cgit++ {
					// q = A p
					tc.ForCostNowait(0, n, avgRow, func(i int) {
						s, e := int(rowstr.Get(tc, i)), int(rowstr.Get(tc, i+1))
						sum := 0.0
						for kk := s; kk < e; kk++ {
							sum += a.Get(tc, kk) * p.Get(tc, int(colidx.Get(tc, kk)))
						}
						q.Set(tc, i, sum)
					})
					// d = p . q (the For's barrier is folded into the
					// reduction's own synchronization).
					partial = 0.0
					for i := lo; i < hi; i++ {
						partial += p.Get(tc, i) * q.Get(tc, i)
					}
					tc.Compute(class.PerVec * sim.Duration(hi-lo))
					d := tc.Reduce("cg-d", core.OpSum, partial)
					alpha := rho / d
					// z += alpha p ; r -= alpha q
					partial = 0.0
					tc.ForCostNowait(0, n, 2*class.PerVec, func(i int) {
						z.Set(tc, i, z.Get(tc, i)+alpha*p.Get(tc, i))
						ri := r.Get(tc, i) - alpha*q.Get(tc, i)
						r.Set(tc, i, ri)
						partial += ri * ri
					})
					rho0 := rho
					rho = tc.Reduce("cg-rho", core.OpSum, partial)
					beta := rho / rho0
					// p = r + beta p
					tc.ForCost(0, n, class.PerVec, func(i int) {
						p.Set(tc, i, r.Get(tc, i)+beta*p.Get(tc, i))
					})
				}

				// Residual norm ||x - A z|| and zeta.
				partial = 0.0
				tc.ForCostNowait(0, n, avgRow, func(i int) {
					s, e := int(rowstr.Get(tc, i)), int(rowstr.Get(tc, i+1))
					sum := 0.0
					for kk := s; kk < e; kk++ {
						sum += a.Get(tc, kk) * z.Get(tc, int(colidx.Get(tc, kk)))
					}
					di := x.Get(tc, i) - sum
					partial += di * di
				})
				rnorm := math.Sqrt(tc.Reduce("cg-rnorm", core.OpSum, partial))

				partialXZ := 0.0
				partialZZ := 0.0
				for i := lo; i < hi; i++ {
					zi := z.Get(tc, i)
					partialXZ += x.Get(tc, i) * zi
					partialZZ += zi * zi
				}
				tc.Compute(2 * class.PerVec * sim.Duration(hi-lo))
				xz := tc.Reduce("cg-xz", core.OpSum, partialXZ)
				zz := tc.Reduce("cg-zz", core.OpSum, partialZZ)
				zeta := class.Shift + 1.0/xz
				znorm := 1.0 / math.Sqrt(zz)
				// x = z / ||z||
				tc.ForCost(0, n, class.PerVec, func(i int) {
					x.Set(tc, i, z.Get(tc, i)*znorm)
				})

				tc.Master(func() {
					res.Zeta = zeta
					res.RNorm = rnorm
				})
			}
		})
		res.KernelTime = sim.Duration(m.Now() - t0)
	})
	if err != nil {
		// A canceled run's partial report (counters, timing to the abort
		// point) rides along with the error for the -timeout stats dump.
		return CGResult{Report: rep}, err
	}
	res.Report = rep
	return res, nil
}

type cgEntry struct {
	col int
	v   float64
}

// cgMakeMatrix builds the CSR rows of the test matrix: a weighted sum of
// outer products of sparse random vectors plus a 0.1 diagonal (the shape
// of NPB's makea).
func cgMakeMatrix(class CGClass) ([][]cgEntry, int) {
	n := class.N
	seed := DefaultSeed
	rowMaps := make([]map[int]float64, n)
	for i := range rowMaps {
		rowMaps[i] = make(map[int]float64, class.NonZer*class.NonZer/2)
	}
	cols := make([]int, class.NonZer)
	vals := make([]float64, class.NonZer)
	ratio := math.Pow(0.1, 1.0/float64(n))
	weight := 1.0
	for i := 0; i < n; i++ {
		// One sparse vector with NonZer distinct random entries; row i is
		// always represented (NPB's vecset).
		used := map[int]bool{}
		for k := 0; k < class.NonZer; k++ {
			col := int(Randlc(&seed, LCGA) * float64(n))
			for used[col] || col >= n {
				col = int(Randlc(&seed, LCGA) * float64(n))
			}
			used[col] = true
			cols[k] = col
			vals[k] = Randlc(&seed, LCGA)
		}
		if !used[i] {
			cols[class.NonZer-1] = i
			vals[class.NonZer-1] = 0.5
		}
		for ka := 0; ka < class.NonZer; ka++ {
			for kb := 0; kb < class.NonZer; kb++ {
				rowMaps[cols[ka]][cols[kb]] += weight * vals[ka] * vals[kb]
			}
		}
		weight *= ratio
	}
	for i := 0; i < n; i++ {
		rowMaps[i][i] += 1.0
	}
	rows := make([][]cgEntry, n)
	nz := 0
	for i := 0; i < n; i++ {
		row := make([]cgEntry, 0, len(rowMaps[i]))
		for col, v := range rowMaps[i] {
			row = append(row, cgEntry{col: col, v: v})
		}
		sort.Slice(row, func(a, b int) bool { return row[a].col < row[b].col })
		rows[i] = row
		nz += len(row)
	}
	return rows, nz
}
