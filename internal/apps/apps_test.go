package apps

import (
	"math"
	"testing"

	"parade/internal/core"
	"parade/internal/kdsm"
)

func TestRandlcMatchesLCG(t *testing.T) {
	// Cross-check the split-precision randlc against exact 64-bit
	// modular arithmetic: x' = a*x mod 2^46.
	x := DefaultSeed
	xi := int64(DefaultSeed)
	const a = int64(LCGA)
	const mod = int64(1) << 46
	for i := 0; i < 1000; i++ {
		Randlc(&x, LCGA)
		// 46-bit modular multiply via 128-bit-free decomposition.
		xi = mulMod46(xi, a)
		if int64(x) != xi {
			t.Fatalf("step %d: randlc state %v, exact %d", i, int64(x), xi)
		}
		_ = mod
	}
}

// mulMod46 computes (a*b) mod 2^46 without overflow.
func mulMod46(a, b int64) int64 {
	const mask = (int64(1) << 46) - 1
	lo := a & ((1 << 23) - 1)
	hi := a >> 23
	r := (lo * b) & mask
	r = (r + ((hi*b)&(mask>>23))<<23) & mask
	return r
}

func TestRandlcRange(t *testing.T) {
	x := DefaultSeed
	for i := 0; i < 10000; i++ {
		v := Randlc(&x, LCGA)
		if v <= 0 || v >= 1 {
			t.Fatalf("randlc out of (0,1): %v", v)
		}
	}
}

func TestPowLCJumpAhead(t *testing.T) {
	// Jumping k steps must equal stepping k times.
	x := DefaultSeed
	for i := 0; i < 137; i++ {
		Randlc(&x, LCGA)
	}
	if got := PowLC(DefaultSeed, LCGA, 137); got != x {
		t.Fatalf("PowLC 137 = %v, want %v", got, x)
	}
	if got := PowLC(DefaultSeed, LCGA, 0); got != DefaultSeed {
		t.Fatalf("PowLC 0 changed the seed: %v", got)
	}
}

func TestVranlc(t *testing.T) {
	out := make([]float64, 16)
	x := DefaultSeed
	Vranlc(16, &x, LCGA, out)
	y := DefaultSeed
	for i, v := range out {
		if w := Randlc(&y, LCGA); v != w {
			t.Fatalf("vranlc[%d] = %v, want %v", i, v, w)
		}
	}
}

func TestCGConvergesAndIsDeterministic(t *testing.T) {
	cfg := core.Config{Nodes: 2, ThreadsPerNode: 2}
	r1, err := RunCG(cfg, CGClassT)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RNorm > 1e-8 {
		t.Fatalf("CG residual %v did not converge", r1.RNorm)
	}
	if math.IsNaN(r1.Zeta) || r1.Zeta <= CGClassT.Shift {
		t.Fatalf("zeta = %v (shift %v)", r1.Zeta, CGClassT.Shift)
	}
	r2, err := RunCG(cfg, CGClassT)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Zeta != r2.Zeta || r1.KernelTime != r2.KernelTime {
		t.Fatalf("CG not deterministic: %v/%v vs %v/%v", r1.Zeta, r1.KernelTime, r2.Zeta, r2.KernelTime)
	}
}

func TestCGSameAnswerAcrossClusterShapes(t *testing.T) {
	ref, err := RunCG(core.Config{Nodes: 1, ThreadsPerNode: 1}, CGClassT)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{
		{Nodes: 1, ThreadsPerNode: 2},
		{Nodes: 2, ThreadsPerNode: 1},
		{Nodes: 4, ThreadsPerNode: 2},
	} {
		r, err := RunCG(cfg, CGClassT)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Zeta-ref.Zeta) > 1e-9 {
			t.Fatalf("cfg %dx%d zeta %v, reference %v", cfg.Nodes, cfg.ThreadsPerNode, r.Zeta, ref.Zeta)
		}
	}
}

func TestCGSameAnswerUnderSDSMMode(t *testing.T) {
	h, err := RunCG(core.Config{Nodes: 2, ThreadsPerNode: 1, Mode: core.Hybrid, HomeMigration: true}, CGClassT)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunCG(kdsm.Config(2, 1, 2), CGClassT)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Zeta-s.Zeta) > 1e-9 {
		t.Fatalf("hybrid zeta %v != SDSM zeta %v", h.Zeta, s.Zeta)
	}
}

func TestCGPageTrafficScalesWithNodes(t *testing.T) {
	r1, err := RunCG(core.Config{Nodes: 1, ThreadsPerNode: 1, HomeMigration: true}, CGClassT)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunCG(core.Config{Nodes: 4, ThreadsPerNode: 1, HomeMigration: true}, CGClassT)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Report.Counters.PageFetches <= r1.Report.Counters.PageFetches {
		t.Fatalf("page fetches: 4 nodes %d <= 1 node %d",
			r4.Report.Counters.PageFetches, r1.Report.Counters.PageFetches)
	}
}

func TestEPStatisticsAndDeterminism(t *testing.T) {
	cfg := core.Config{Nodes: 2, ThreadsPerNode: 2}
	r, err := RunEP(cfg, EPClassT)
	if err != nil {
		t.Fatal(err)
	}
	pairs := float64(int64(1) << EPClassT.M)
	// Acceptance rate of the polar method is pi/4.
	rate := r.Accepted / pairs
	if math.Abs(rate-math.Pi/4) > 0.01 {
		t.Fatalf("acceptance rate %v, want ~pi/4", rate)
	}
	// Gaussian sums stay near zero relative to the sample count.
	if math.Abs(r.Sx)/pairs > 0.01 || math.Abs(r.Sy)/pairs > 0.01 {
		t.Fatalf("sx=%v sy=%v too large for %v pairs", r.Sx, r.Sy, pairs)
	}
	// Counts decay by annulus.
	if !(r.Counts[0] > r.Counts[2] && r.Counts[2] > r.Counts[4]) {
		t.Fatalf("annulus counts not decaying: %v", r.Counts)
	}
	r2, err := RunEP(cfg, EPClassT)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sx != r2.Sx || r.Sy != r2.Sy {
		t.Fatal("EP not deterministic")
	}
}

func TestEPIndependentOfClusterShape(t *testing.T) {
	ref, err := RunEP(core.Config{Nodes: 1, ThreadsPerNode: 1}, EPClassT)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{
		{Nodes: 4, ThreadsPerNode: 1},
		{Nodes: 2, ThreadsPerNode: 2},
	} {
		r, err := RunEP(cfg, EPClassT)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Sx-ref.Sx) > 1e-6 || math.Abs(r.Sy-ref.Sy) > 1e-6 {
			t.Fatalf("cfg %+v: sx/sy %v/%v vs ref %v/%v", cfg, r.Sx, r.Sy, ref.Sx, ref.Sy)
		}
	}
}

func TestEPScalesNearLinearly(t *testing.T) {
	r1, err := RunEP(core.Config1T2C(1), EPClassT)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunEP(core.Config1T2C(4), EPClassT)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.KernelTime) / float64(r4.KernelTime)
	if speedup < 3.2 {
		t.Fatalf("EP speedup on 4 nodes = %.2f, want near-linear (>3.2)", speedup)
	}
}

func TestHelmholtzConvergesMonotonically(t *testing.T) {
	cfg := core.Config{Nodes: 2, ThreadsPerNode: 2}
	r, err := RunHelmholtz(cfg, HelmholtzTest())
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 20 {
		t.Fatalf("ran %d iterations, want full 20", r.Iterations)
	}
	if math.IsNaN(r.Error) || r.Error <= 0 {
		t.Fatalf("final error %v", r.Error)
	}
	// A longer run must reduce the residual further.
	longer := HelmholtzTest()
	longer.MaxIter = 60
	r2, err := RunHelmholtz(cfg, longer)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Error >= r.Error {
		t.Fatalf("error did not decrease: %v after 20, %v after 60", r.Error, r2.Error)
	}
}

func TestHelmholtzSameAnswerAcrossShapesAndModes(t *testing.T) {
	ref, err := RunHelmholtz(core.Config{Nodes: 1, ThreadsPerNode: 1}, HelmholtzTest())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{
		{Nodes: 4, ThreadsPerNode: 2, Mode: core.Hybrid, HomeMigration: true},
		kdsm.Config(2, 2, 2),
	} {
		r, err := RunHelmholtz(cfg, HelmholtzTest())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Error-ref.Error)/ref.Error > 1e-9 {
			t.Fatalf("cfg %+v error %v, ref %v", cfg, r.Error, ref.Error)
		}
	}
}

func TestHelmholtzUsesReductionCollective(t *testing.T) {
	r, err := RunHelmholtz(core.Config{Nodes: 4, ThreadsPerNode: 1}, HelmholtzTest())
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Counters.HybridReductions < int64(r.Iterations) {
		t.Fatalf("only %d hybrid reductions for %d iterations",
			r.Report.Counters.HybridReductions, r.Iterations)
	}
	if r.Report.Counters.LockRequests != 0 {
		t.Fatalf("hybrid Helmholtz took %d SDSM locks", r.Report.Counters.LockRequests)
	}
}

func TestMDEnergyConservation(t *testing.T) {
	cfg := core.Config{Nodes: 2, ThreadsPerNode: 2}
	r, err := RunMD(cfg, MDTest())
	if err != nil {
		t.Fatal(err)
	}
	if r.E0 <= 0 {
		t.Fatalf("initial energy %v", r.E0)
	}
	if r.MaxDrift > 1e-4 {
		t.Fatalf("energy drift %v too large for velocity Verlet", r.MaxDrift)
	}
}

func TestMDSameAnswerAcrossShapes(t *testing.T) {
	ref, err := RunMD(core.Config{Nodes: 1, ThreadsPerNode: 1}, MDTest())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunMD(core.Config{Nodes: 4, ThreadsPerNode: 2}, MDTest())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.EFinal-ref.EFinal)/ref.E0 > 1e-9 {
		t.Fatalf("final energy %v vs reference %v", r.EFinal, ref.EFinal)
	}
}

func TestMDLessTrafficThanHelmholtz(t *testing.T) {
	// §6.2: "the amount of shared memory and inter-node communication of
	// MD is less than that of Helmholtz".
	cfg := core.Config{Nodes: 4, ThreadsPerNode: 1}
	h, err := RunHelmholtz(cfg, HelmholtzDefault())
	if err != nil {
		t.Fatal(err)
	}
	md, err := RunMD(cfg, MDDefault())
	if err != nil {
		t.Fatal(err)
	}
	if md.Report.Counters.Bytes >= h.Report.Counters.Bytes {
		t.Fatalf("MD moved %d bytes, Helmholtz %d — expected less",
			md.Report.Counters.Bytes, h.Report.Counters.Bytes)
	}
}

func TestLockmixSumMatchesExpectedAcrossShapes(t *testing.T) {
	for _, cfg := range []core.Config{
		{Nodes: 1, ThreadsPerNode: 2},
		{Nodes: 2, ThreadsPerNode: 1},
		{Nodes: 2, ThreadsPerNode: 2},
		{Nodes: 4, ThreadsPerNode: 1},
	} {
		for _, caching := range []bool{false, true} {
			c := cfg
			c.LockCaching = caching
			r, err := RunLockmix(c, LockmixTest())
			if err != nil {
				t.Fatal(err)
			}
			if r.Sum != r.Expected {
				t.Fatalf("cfg %dx%d caching=%v: sum %v, expected %v (lost a critical-section update)",
					cfg.Nodes, cfg.ThreadsPerNode, caching, r.Sum, r.Expected)
			}
		}
	}
}

func TestLockmixDeterministic(t *testing.T) {
	cfg := core.Config{Nodes: 2, ThreadsPerNode: 2, LockCaching: true}
	r1, err := RunLockmix(cfg, LockmixTest())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunLockmix(cfg, LockmixTest())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sum != r2.Sum || r1.Report.MemHash != r2.Report.MemHash || r1.Report.Time != r2.Report.Time {
		t.Fatalf("lockmix not deterministic: %v/%x/%v vs %v/%x/%v",
			r1.Sum, r1.Report.MemHash, r1.Report.Time, r2.Sum, r2.Report.MemHash, r2.Report.Time)
	}
}

func TestLockmixSameAnswerUnderSDSMMode(t *testing.T) {
	h, err := RunLockmix(core.Config{Nodes: 2, ThreadsPerNode: 1, Mode: core.Hybrid, HomeMigration: true}, LockmixTest())
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunLockmix(kdsm.Config(2, 1, 2), LockmixTest())
	if err != nil {
		t.Fatal(err)
	}
	if h.Sum != s.Sum || h.Sum != h.Expected {
		t.Fatalf("hybrid sum %v (want %v), SDSM sum %v", h.Sum, h.Expected, s.Sum)
	}
}
