package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parade/internal/core"
	"parade/internal/dsm"
	"parade/internal/fleet"
	"parade/internal/harness"
	"parade/internal/hlrc"
	"parade/internal/mpi"
	"parade/internal/netsim"
	"parade/internal/sim"
	"parade/internal/stats"
)

// driver measures one layer operation from outside, through the layer's
// public functions: run performs about n operations and returns the host
// time they took and how many were actually done.
type driver struct {
	metric string // <layer>.<fn>_<unit>
	unit   string // ns, us or ms per operation
	maxN   int    // largest n the driver's fixtures allow; 0 for no limit
	run    func(n int) (time.Duration, int, error)
}

// unitNs is the length of a driver's unit in nanoseconds.
var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// driverTarget is how long one driver measures for; -quick shrinks it.
const driverTarget = 40 * time.Millisecond

// perOp grows n until the operations take target, then reports host
// time per operation in the driver's unit.
func (d driver) perOp(target time.Duration) (float64, error) {
	n := 1
	for {
		elapsed, ops, err := d.run(n)
		if err != nil {
			return 0, fmt.Errorf("driver %s: %w", d.metric, err)
		}
		if ops < 1 {
			return 0, fmt.Errorf("driver %s: no operations done", d.metric)
		}
		if elapsed >= target || n >= 1<<24 || (d.maxN > 0 && n >= d.maxN) {
			ns := float64(elapsed.Nanoseconds()) / float64(ops)
			if ns < 0 {
				ns = 0
			}
			return ns / unitNs[d.unit], nil
		}
		grow := 100.0
		if elapsed > 0 {
			grow = 1.2 * float64(target) / float64(elapsed)
		}
		if grow < 2 {
			grow = 2
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
		if d.maxN > 0 && n > d.maxN {
			n = d.maxN
		}
	}
}

// runDrivers runs every layer driver, one span per driver, and returns
// the metrics by name.
func runDrivers(e env, sc spanCtx) (map[string]float64, error) {
	target := driverTarget
	if e.quick {
		target = time.Millisecond
	}
	out := map[string]float64{}
	list, err := coreDrivers()
	if err != nil {
		return nil, err
	}
	list = append(append(append(simDrivers(), netDrivers()...), dsmDrivers()...), list...)
	for _, d := range list {
		span := sc.start("driver:" + d.metric)
		v, err := d.perOp(target)
		span.end()
		if err != nil {
			return nil, err
		}
		out[d.metric] = v
	}
	span := sc.start("driver:fleet")
	defer span.end()
	if err := fleetDrivers(e, target, out); err != nil {
		return nil, err
	}
	return out, nil
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

func simDrivers() []driver {
	return []driver{
		{metric: "sim.event_ns", unit: "ns", run: func(n int) (time.Duration, int, error) {
			// At + Run: a chain of n timer events.
			s := sim.New(1)
			left := n
			var tick func()
			tick = func() {
				if left--; left > 0 {
					s.At(sim.Microsecond, tick)
				}
			}
			s.At(sim.Microsecond, tick)
			d, err := timed(s.Run)
			return d, n, err
		}},
		{metric: "sim.switch_ns", unit: "ns", run: func(n int) (time.Duration, int, error) {
			// Two Procs ping-pong through queues: every hop parks one
			// and wakes the other.
			s := sim.New(1)
			ping, pong := sim.NewQueue[int](s), sim.NewQueue[int](s)
			s.Spawn("ping", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					pong.Push(i)
					ping.Pop(p)
				}
			})
			s.Spawn("pong", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					pong.Pop(p)
					ping.Push(i)
				}
			})
			d, err := timed(s.Run)
			return d, 2 * n, err
		}},
		{metric: "sim.spawn_us", unit: "us", maxN: 1 << 14, run: func(n int) (time.Duration, int, error) {
			s := sim.New(1)
			d, err := timed(func() error {
				for i := 0; i < n; i++ {
					s.Spawn("p", func(*sim.Proc) {})
				}
				return s.Run()
			})
			return d, n, err
		}},
		{metric: "sim.lane_window_ns", unit: "ns", run: func(n int) (time.Duration, int, error) {
			// ConfigureLanes + AtFrom: eight chains that hop to the next
			// lane at the lookahead bound on every event, so all traffic
			// goes through the outbox merge at a window barrier.
			const lanes, lookahead = 8, 4 * sim.Microsecond
			s := sim.New(1)
			s.ConfigureLanes(lanes, runtime.GOMAXPROCS(0), lookahead, false)
			per := n/lanes + 1
			for i := 0; i < lanes; i++ {
				ln, left := i, per
				var step func()
				step = func() {
					if left--; left <= 0 {
						return
					}
					src := ln
					ln = (ln + 1) % lanes
					s.AtFrom(src, ln, lookahead, step)
				}
				s.AtFrom(i, i, 0, step)
			}
			d, err := timed(s.Run)
			return d, per * lanes, err
		}},
	}
}

// newNet builds an n-node VIA network on a fresh simulator.
func newNet(n int) (*sim.Simulator, *netsim.Network, []*sim.CPU, *stats.Counters) {
	s := sim.New(1)
	cpus := make([]*sim.CPU, n)
	for i := range cpus {
		cpus[i] = sim.NewCPU(s, 2, 0)
	}
	c := &stats.Counters{}
	return s, netsim.New(s, n, netsim.VIA(), cpus, c), cpus, c
}

// sendDriver bounces a message between two nodes n times, one frame in
// flight at a time as in a protocol exchange; with faults the drop
// profile's reliability sublayer carries it.
func sendDriver(faults bool) func(n int) (time.Duration, int, error) {
	return func(n int) (time.Duration, int, error) {
		s, net, _, _ := newNet(2)
		if faults {
			net.EnableFaults(netsim.ProfileDrop(7))
		}
		s.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				net.Inbox(1).Pop(p)
				net.Send(p, &netsim.Message{From: 1, To: 0, Tag: i, Bytes: 256})
			}
		})
		s.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				net.Send(p, &netsim.Message{From: 0, To: 1, Tag: i, Bytes: 256})
				net.Inbox(0).Pop(p)
			}
		})
		d, err := timed(s.Run)
		return d, 2 * n, err
	}
}

// collectiveDriver runs n collectives on an 8-rank world.
func collectiveDriver(op func(p *sim.Proc, ep *mpi.Endpoint)) func(n int) (time.Duration, int, error) {
	return func(n int) (time.Duration, int, error) {
		const ranks = 8
		s, net, _, c := newNet(ranks)
		w := mpi.NewWorld(s, net, c)
		w.Serve()
		for r := 0; r < ranks; r++ {
			ep := w.Rank(r)
			s.Spawn("rank", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					op(p, ep)
				}
			})
		}
		d, err := timed(s.Run)
		return d, n, err
	}
}

func netDrivers() []driver {
	sum := func(a, b any) any { return a.(float64) + b.(float64) }
	return []driver{
		{metric: "netsim.send_ns", unit: "ns", run: sendDriver(false)},
		{metric: "netsim.reliable_send_ns", unit: "ns", run: sendDriver(true)},
		{metric: "mpi.allreduce_us", unit: "us", run: collectiveDriver(func(p *sim.Proc, ep *mpi.Endpoint) {
			ep.Allreduce(p, 1.0, 8, sum)
		})},
		{metric: "mpi.bcast_us", unit: "us", run: collectiveDriver(func(p *sim.Proc, ep *mpi.Endpoint) {
			ep.Bcast(p, 0, 1.0, 8)
		})},
		{metric: "mpi.barrier_us", unit: "us", run: collectiveDriver(func(p *sim.Proc, ep *mpi.Endpoint) {
			ep.Barrier(p)
		})},
	}
}

// diffPair builds a 4 KiB twin and a current page that differs from it
// in the given byte ranges.
func diffPair(dirty ...[2]int) (twin, cur []byte) {
	twin = make([]byte, dsm.PageSize)
	cur = make([]byte, dsm.PageSize)
	for i := range twin {
		twin[i] = byte(i * 7)
		cur[i] = twin[i]
	}
	for _, r := range dirty {
		for i := r[0]; i < r[1]; i++ {
			cur[i] ^= 0xff
		}
	}
	return twin, cur
}

func dsmDrivers() []driver {
	// Eight scattered dirty words (scalar updates) and one dense dirty
	// block (a node's vector slice): the flush shapes the apps produce.
	sparse := [][2]int{{0, 4}, {512, 516}, {1024, 1028}, {1536, 1540}, {2048, 2052}, {2560, 2564}, {3072, 3076}, {4092, 4096}}
	dense := [][2]int{{512, 1536}}
	diffDriver := func(dirty [][2]int) func(n int) (time.Duration, int, error) {
		return func(n int) (time.Duration, int, error) {
			twin, cur := diffPair(dirty...)
			var d dsm.Diff
			dsm.DiffInto(&d, 3, twin, cur) // warm the run slice, as the engine's pool does
			el, _ := timed(func() error {
				for i := 0; i < n; i++ {
					dsm.DiffInto(&d, 3, twin, cur)
				}
				return nil
			})
			return el, n, nil
		}
	}
	const poolPages = (16 << 20) / dsm.PageSize
	return []driver{
		{metric: "dsm.diff_sparse_ns", unit: "ns", run: diffDriver(sparse)},
		{metric: "dsm.diff_dense_ns", unit: "ns", run: diffDriver(dense)},
		{metric: "dsm.apply_ns", unit: "ns", run: func(n int) (time.Duration, int, error) {
			twin, cur := diffPair(dense...)
			d := dsm.MakeDiff(3, twin, cur)
			el, _ := timed(func() error {
				for i := 0; i < n; i++ {
					d.Apply(twin)
				}
				return nil
			})
			return el, n, nil
		}},
		{metric: "dsm.table_new_us", unit: "us", run: func(n int) (time.Duration, int, error) {
			var t *dsm.Table
			el, _ := timed(func() error {
				for i := 0; i < n; i++ {
					t = dsm.NewTable(0, poolPages)
				}
				return nil
			})
			runtime.KeepAlive(t)
			return el, n, nil
		}},
		{metric: "hlrc.new_us", unit: "us", run: func(n int) (time.Duration, int, error) {
			// A 4-node engine over the default 16 MiB pool, as core.Run
			// builds one per cell.
			var total time.Duration
			for i := 0; i < n; i++ {
				s, net, cpus, c := newNet(4)
				start := time.Now()
				e := hlrc.New(s, net, cpus, hlrc.Config{Nodes: 4, ShmBytes: 16 << 20, HomeMigration: true}, c)
				total += time.Since(start)
				runtime.KeepAlive(e)
			}
			return total, n, nil
		}},
	}
}

// driverCfg is the cluster the core drivers run on: the matrices' 4x1
// hybrid configuration, or its sdsm counterpart.
func driverCfg(mode string) (core.Config, error) {
	return harness.MatrixModeConfig(mode, 4, 1)
}

// coreDrivers measures core.Run with an empty program (set-up plus
// tear-down of one cluster) and each directive's host time net of it.
func coreDrivers() ([]driver, error) {
	hybrid, err := driverCfg("hybrid")
	if err != nil {
		return nil, err
	}
	sdsm, err := driverCfg("sdsm")
	if err != nil {
		return nil, err
	}
	run := func(cfg core.Config, prog func(m *core.Thread)) (time.Duration, core.Report, error) {
		start := time.Now()
		rep, err := core.Run(cfg, prog)
		return time.Since(start), rep, err
	}
	// empty is the median cost of an empty run, which the directive
	// drivers subtract.
	var empties []float64
	for i := 0; i < 5; i++ {
		d, _, err := run(hybrid, func(*core.Thread) {})
		if err != nil {
			return nil, err
		}
		empties = append(empties, float64(d))
	}
	empty := time.Duration(median(empties))

	// directive builds a driver whose program runs body n times inside
	// one parallel region on every thread.
	directive := func(cfg core.Config, setup func(c *core.Cluster) func(tc *core.Thread)) func(n int) (time.Duration, int, error) {
		return func(n int) (time.Duration, int, error) {
			d, _, err := run(cfg, func(m *core.Thread) {
				body := setup(m.Cluster())
				m.Parallel(func(tc *core.Thread) {
					for i := 0; i < n; i++ {
						body(tc)
					}
				})
			})
			return d - empty, n, err
		}
	}

	return []driver{
		{metric: "core.run_empty_ms", unit: "ms", run: func(n int) (time.Duration, int, error) {
			var total time.Duration
			for i := 0; i < n; i++ {
				d, _, err := run(hybrid, func(*core.Thread) {})
				if err != nil {
					return 0, 0, err
				}
				total += d
			}
			return total, n, nil
		}},
		{metric: "core.parallel_us", unit: "us", run: func(n int) (time.Duration, int, error) {
			d, _, err := run(hybrid, func(m *core.Thread) {
				for i := 0; i < n; i++ {
					m.Parallel(func(*core.Thread) {})
				}
			})
			return d - empty, n, err
		}},
		{metric: "core.barrier_us", unit: "us", run: directive(hybrid, func(*core.Cluster) func(tc *core.Thread) {
			return func(tc *core.Thread) { tc.Barrier() }
		})},
		{metric: "core.critical_us", unit: "us", run: directive(hybrid, func(c *core.Cluster) func(tc *core.Thread) {
			s := c.ScalarVar("drv-critical")
			return func(tc *core.Thread) {
				tc.Critical("drv-critical", []*core.Scalar{s}, func() { s.Add(tc, 1) })
			}
		})},
		{metric: "core.lock_us", unit: "us", run: directive(sdsm, func(*core.Cluster) func(tc *core.Thread) {
			// In sdsm mode a critical is a distributed SDSM lock.
			return func(tc *core.Thread) { tc.Critical("drv-lock", nil, func() {}) }
		})},
		{metric: "core.fault_us", unit: "us", maxN: 2048, run: func(n int) (time.Duration, int, error) {
			// Node 0 writes one word on each of n pages; after the
			// barrier node 1 reads them, one remote page touch each.
			const stride = dsm.PageSize / 8
			d, rep, err := run(sdsm, func(m *core.Thread) {
				a := m.Cluster().AllocF64(n * stride)
				m.Parallel(func(tc *core.Thread) {
					if tc.NodeID() == 0 {
						for i := 0; i < n; i++ {
							a.Set(tc, i*stride, float64(i))
						}
					}
					tc.Barrier()
					if tc.NodeID() == 1 {
						for i := 0; i < n; i++ {
							a.Get(tc, i*stride)
						}
					}
				})
			})
			return d - empty, int(rep.Counters.PageFetches), err
		}},
		{metric: "core.task_us", unit: "us", maxN: 1 << 14, run: func(n int) (time.Duration, int, error) {
			d, rep, err := run(hybrid, func(m *core.Thread) {
				m.Parallel(func(tc *core.Thread) {
					tc.Master(func() {
						for i := 0; i < n; i++ {
							tc.Task(func(*core.Thread) float64 { return 1 })
						}
					})
					tc.Taskwait()
				})
			})
			return d - empty, int(rep.Counters.TasksExecuted), err
		}},
		{metric: "core.taskdep_us", unit: "us", maxN: 1 << 14, run: func(n int) (time.Duration, int, error) {
			// A chain: every task depends on its predecessor through one
			// named handle, so each goes through the resolver.
			d, rep, err := run(hybrid, func(m *core.Thread) {
				m.Parallel(func(tc *core.Thread) {
					tc.Master(func() {
						for i := 0; i < n; i++ {
							tc.Task(func(*core.Thread) float64 { return 1 },
								core.WithDepend(core.InOut, core.DepName("drv-chain")))
						}
					})
					tc.Taskwait()
				})
			})
			return d - empty, int(rep.Counters.TasksExecuted), err
		}},
		{metric: "hlrc.fingerprint_us", unit: "us", maxN: 256, run: func(n int) (time.Duration, int, error) {
			// StateFingerprint of a 4-node engine after every node wrote
			// its slice of a 256-page array, as a small cell leaves it.
			const elems = 256 * dsm.PageSize / 8
			var total time.Duration
			_, _, err := run(hybrid, func(m *core.Thread) {
				a := m.Cluster().AllocF64(elems)
				m.Parallel(func(tc *core.Thread) {
					lo, hi := tc.StaticRange(0, elems)
					for i := lo; i < hi; i += 64 {
						a.Set(tc, i, float64(i))
					}
				})
				start := time.Now()
				for i := 0; i < n; i++ {
					m.Cluster().Engine().StateFingerprint()
				}
				total = time.Since(start)
			})
			return total, n, err
		}},
	}, nil
}

// fleetDrivers measures the service's parts without HTTP, and the
// cache-hit path with it.
func fleetDrivers(e env, target time.Duration, out map[string]float64) error {
	spec := fleet.JobSpec{App: "helmholtz", Mode: "hybrid", FaultProfile: serveProfile, Seed: 7}
	exec := fleet.NewExecutor(fleet.ExecOptions{})
	res, err := exec.Run(spec)
	if err != nil {
		return err
	}
	if res.Status != fleet.StatusOK {
		return fmt.Errorf("driver fleet.exec_run_ms: status %s: %s", res.Status, res.Error)
	}

	// keys are distinct specs (fault seeds) with their cache keys made
	// ahead of the timed loops.
	const keys = 4096
	type key struct {
		fp    uint64
		canon string
	}
	ks := make([]key, keys)
	for i := range ks {
		s := spec
		s.Seed = int64(i + 1)
		ks[i] = key{s.Fingerprint(), s.Canonical()}
	}
	cache := fleet.NewCache(serveCache)
	for _, k := range ks {
		cache.Put(k.fp, k.canon, res)
	}

	list := []driver{
		{metric: "fleet.exec_run_ms", unit: "ms", run: func(n int) (time.Duration, int, error) {
			d, err := timed(func() error {
				for i := 0; i < n; i++ {
					if _, err := exec.Run(spec); err != nil {
						return err
					}
				}
				return nil
			})
			return d, n, err
		}},
		{metric: "fleet.canonical_ns", unit: "ns", run: func(n int) (time.Duration, int, error) {
			var c string
			d, _ := timed(func() error {
				for i := 0; i < n; i++ {
					c = spec.Canonical()
				}
				return nil
			})
			runtime.KeepAlive(c)
			return d, n, nil
		}},
		{metric: "fleet.cache_get_ns", unit: "ns", run: func(n int) (time.Duration, int, error) {
			hits := 0
			d, _ := timed(func() error {
				for i := 0; i < n; i++ {
					k := ks[i%keys]
					if _, ok := cache.Get(k.fp, k.canon); ok {
						hits++
					}
				}
				return nil
			})
			return d, hits, nil
		}},
		{metric: "fleet.cache_put_ns", unit: "ns", maxN: keys, run: func(n int) (time.Duration, int, error) {
			fresh := fleet.NewCache(serveCache)
			d, _ := timed(func() error {
				for i := 0; i < n; i++ {
					fresh.Put(ks[i].fp, ks[i].canon, res)
				}
				return nil
			})
			return d, n, nil
		}},
	}
	for _, d := range list {
		v, err := d.perOp(target)
		if err != nil {
			return err
		}
		out[d.metric] = v
	}

	// WAL: append (marshal, checksum, write, flush, fsync) per record,
	// then the replay of those records on reopen.
	dir, err := os.MkdirTemp(e.tmpRoot, "e2e-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "driver.wal")
	wal, _, _, err := fleet.OpenWAL(path)
	if err != nil {
		return err
	}
	minAppends := 100 // so that the 99th percentile is a sample, not the maximum
	if e.quick {
		minAppends = 10
	}
	var appendUs []float64
	for start := time.Now(); len(appendUs) < keys && (len(appendUs) < minAppends || time.Since(start) < 8*target); {
		k := ks[len(appendUs)]
		t0 := time.Now()
		if err := wal.Append(k.fp, k.canon, res); err != nil {
			wal.Close()
			return err
		}
		appendUs = append(appendUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := wal.Close(); err != nil {
		return err
	}
	out["fleet.wal_append_us_p50"], _ = quantile(appendUs, 0.50)
	out["fleet.wal_append_us_p99"], _ = quantile(appendUs, 0.99)
	wal, records, replay, err := fleet.OpenWAL(path)
	if err != nil {
		return err
	}
	wal.Close()
	if len(records) != len(appendUs) {
		return fmt.Errorf("driver fleet.wal_replay_ms_per_1k: replayed %d of %d records", len(records), len(appendUs))
	}
	out["fleet.wal_replay_ms_per_1k"] = float64(replay.Elapsed.Nanoseconds()) / 1e6 * 1000 / float64(len(records))

	// The cache-hit path over real HTTP: one pre-warmed batch, re-POSTed.
	inst, err := newServe(e, 1)
	if err != nil {
		return err
	}
	defer inst.close()
	specs := batchSpecs(inst.base)
	hit := driver{metric: "fleet.http_us_per_hit", unit: "us", run: func(n int) (time.Duration, int, error) {
		jobs := 0
		d, err := timed(func() error {
			for i := 0; i < n; i++ {
				results, err := inst.post(specs, spanCtx{})
				if err != nil {
					return err
				}
				jobs += len(results)
			}
			return nil
		})
		return d, jobs, err
	}}
	out[hit.metric], err = hit.perOp(target)
	return err
}
