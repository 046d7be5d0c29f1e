package apps

import (
	"fmt"
	"math"

	"parade/internal/core"
	"parade/internal/sim"
)

// Taskdep is the dependence-graph and offload kernel: a segmented
// producer/transform/consume pipeline expressed entirely through depend
// clauses, plus a per-round Target offload stage with explicit map
// clauses. It is the acceptance kernel for the task-graph scheduler —
// every ordering below comes from the resolver (no barriers inside a
// phase), so a scheduling bug shows up as a changed result bit — and
// for the offload path: Target pins work to a device node, MapTo
// batches the input pages there, MapFrom returns the output eagerly.
//
// Each round, per segment of a shared array: a named producer task
// (Out on the segment handle) writes it; a transformer (InOut, plus a
// DepTask reference back to the producer, at raised priority) rewrites
// it; a checker task forward-references the finisher by name — spawned
// before the finisher exists, exercising pending registration — and a
// named finisher (In on the segment) sums it. After the join, every
// thread offloads its segments' reduction to the device with Target
// (MapTo the data, MapFrom the per-segment output), and a verifier task
// orders itself after the offload with a DepTask reference, reading the
// returned pages. A Taskloop sweep and a static rewrite pass close the
// run; the rewrite makes every page's final writer schedule-independent
// (the quad/lockmix determinization precedent), so MemHash is
// bit-identical across steal orders, fault profiles and crash
// schedules.

// TaskdepParams sizes the kernel.
type TaskdepParams struct {
	Segments int          // pipeline width (segments per round)
	SegLen   int          // elements per segment
	Rounds   int          // pipeline rounds, each with two task-graph joins
	Device   int          // offload target node (taken modulo the cluster size)
	PerElem  sim.Duration // virtual cost per element visit in costed phases
}

// TaskdepDefault is the standard shape.
func TaskdepDefault() TaskdepParams {
	return TaskdepParams{Segments: 16, SegLen: 512, Rounds: 2, Device: 0,
		PerElem: sim.Microsecond}
}

// TaskdepTest is a small configuration for unit tests and the
// acceptance matrices.
func TaskdepTest() TaskdepParams {
	return TaskdepParams{Segments: 8, SegLen: 256, Rounds: 2, Device: 0,
		PerElem: sim.Microsecond}
}

// taskdepBase is the producer's value for element idx in round r: pure
// float math of the index, identical on any node.
func taskdepBase(r, idx int) float64 {
	return 0.5*math.Sin(float64(idx)*0.01+float64(r)) + 0.25*float64(r)
}

// taskdepXform is the transformer's rewrite.
func taskdepXform(v float64) float64 { return v*1.0009765625 + 0.125 }

// taskdepFinal is element idx's value after the last round — the
// rewrite pass's target, computable without running the pipeline.
func taskdepFinal(rounds, idx int) float64 {
	return taskdepXform(taskdepBase(rounds-1, idx))
}

// TaskdepResult is the outcome of one run.
type TaskdepResult struct {
	PipeSum    float64 // finisher + checker contributions across rounds
	OffloadSum float64 // Target + verifier contributions across rounds
	CheckSum   float64 // closing Taskloop sweep
	KernelTime sim.Duration
	Report     core.Report
}

// RunTaskdep executes the kernel under cfg.
func RunTaskdep(cfg core.Config, prm TaskdepParams) (TaskdepResult, error) {
	cfg = cfg.WithDefaults()
	var res TaskdepResult
	rep, err := core.Run(cfg, func(m *core.Thread) {
		c := m.Cluster()
		L := prm.SegLen
		data := c.AllocF64(prm.Segments * L)
		out := c.AllocF64(prm.Segments)
		dev := prm.Device % cfg.Nodes
		var t0 sim.Time

		m.Parallel(func(tc *core.Thread) {
			tc.Master(func() { t0 = tc.Now() })
			sLo, sHi := tc.StaticRange(0, prm.Segments)

			for r := 0; r < prm.Rounds; r++ {
				r := r
				// Phase 1: the dependence pipeline. All intra-segment
				// ordering comes from the resolver.
				for s := sLo; s < sHi; s++ {
					s := s
					seg := core.DepName(fmt.Sprintf("seg%d", s))
					prodName := fmt.Sprintf("prod%d", s)
					finName := fmt.Sprintf("fin%d", s)
					tc.Task(func(ex *core.Thread) float64 {
						ex.Compute(prm.PerElem * sim.Duration(L))
						for i := 0; i < L; i++ {
							data.Set(ex, s*L+i, taskdepBase(r, s*L+i))
						}
						return 0
					}, core.WithDepend(core.Out, seg), core.WithTaskName(prodName))
					tc.Task(func(ex *core.Thread) float64 {
						ex.Compute(prm.PerElem * sim.Duration(L))
						for i := 0; i < L; i++ {
							data.Set(ex, s*L+i, taskdepXform(data.Get(ex, s*L+i)))
						}
						return 0
					}, core.WithDepend(core.InOut, seg),
						core.WithDepend(core.In, core.DepTask(prodName)), // redundant with the data edge: exercises backward task refs
						core.WithPriority(1))
					// Forward reference: the checker waits on a name no
					// sibling has registered yet.
					tc.Task(func(ex *core.Thread) float64 {
						var sum float64
						for i := 0; i < L; i++ {
							sum += data.Get(ex, s*L+i)
						}
						return 0.5 * sum
					}, core.WithDepend(core.In, core.DepTask(finName)))
					tc.Task(func(ex *core.Thread) float64 {
						var sum float64
						for i := 0; i < L; i++ {
							sum += data.Get(ex, s*L+i)
						}
						return sum
					}, core.WithDepend(core.In, seg), core.WithTaskName(finName))
				}
				pipe := tc.Taskwait()
				tc.Master(func() { res.PipeSum += pipe })

				// Phase 2: offload. Each thread pins its segments' reduction
				// to the device node, with the data pushed ahead of the body
				// and the output pages queued back to this node's next
				// barrier refresh; the verifier orders itself after the
				// offload by task name and reads the returned pages.
				offName := fmt.Sprintf("off%d", tc.GID())
				tc.Target(dev, func(ex *core.Thread) float64 {
					var total float64
					for s := sLo; s < sHi; s++ {
						var sum float64
						for i := 0; i < L; i++ {
							sum += data.Get(ex, s*L+i)
						}
						out.Set(ex, s, sum)
						total += sum
					}
					return total
				}, core.WithMap(core.MapTo, data), core.WithMap(core.MapFrom, out),
					core.WithTaskName(offName))
				tc.Task(func(ex *core.Thread) float64 {
					var sum float64
					for s := sLo; s < sHi; s++ {
						sum += out.Get(ex, s)
					}
					return sum
				}, core.WithDepend(core.In, core.DepTask(offName)))
				off := tc.Taskwait()
				tc.Master(func() { res.OffloadSum += off })
			}

			// Closing Taskloop sweep over the final table, at raised
			// priority with a per-element cost.
			check := tc.Taskloop(0, prm.Segments*L, func(ex *core.Thread, i int) float64 {
				return data.Get(ex, i)
			}, core.WithGrainsize(prm.Segments*L/(4*tc.NumThreads())),
				core.WithIterCost(prm.PerElem), core.WithPriority(1))
			tc.Master(func() { res.CheckSum = check })

			// Determinize: static rewrites of the same final values make
			// each page's last writer (and with it home election and
			// validity) independent of who executed what.
			tc.For(0, prm.Segments*L, func(i int) {
				data.Set(tc, i, taskdepFinal(prm.Rounds, i))
			})
			tc.For(0, prm.Segments, func(s int) {
				var sum float64
				for i := 0; i < L; i++ {
					sum += taskdepFinal(prm.Rounds, s*L+i)
				}
				out.Set(tc, s, sum)
			})

			tc.Master(func() { res.KernelTime = sim.Duration(tc.Now() - t0) })
		})
	})
	if err != nil {
		return TaskdepResult{Report: rep}, err
	}
	res.Report = rep
	return res, nil
}
