package core

import (
	"math"

	"parade/internal/dsm"
)

// Shared memory objects. Large data (arrays) lives in the SDSM pool and
// is kept consistent by the HLRC protocol; small named scalars are the
// objects the hybrid execution model manages with an update protocol
// over message-passing collectives (entry-consistency style, §5.2.1).

// F64Array is a shared array of float64 in the SDSM pool. Every access
// goes through the node's software TLB (hlrc's Engine.Load/Store); a
// miss takes the page permission check, which may trigger the simulated
// page fault handler.
type F64Array struct {
	c    *Cluster
	base int
	n    int
}

// AllocF64 reserves a page-aligned shared float64 array. Page alignment
// follows the paper's §7 guideline: unrelated arrays never share a page.
func (c *Cluster) AllocF64(n int) F64Array {
	return F64Array{c: c, base: c.engine.Alloc.AllocPage(8 * n), n: n}
}

// Len returns the number of elements.
func (a F64Array) Len() int { return a.n }

// Addr returns the shared address of element i.
func (a F64Array) Addr(i int) int { return a.base + 8*i }

// Pages returns the array's page span, making it Mappable in a Target
// map clause. Arrays are page-aligned, so the span is exactly theirs.
func (a F64Array) Pages() []int { return pageSpan(a.base, 8*a.n) }

// Get loads element i from t's node, faulting the page in if needed.
// Get and Set are one engine call each, written (a.base+8*i rather than
// Addr) to fit the compiler's inlining budget, so an app's inner loop
// pays one call per element.
func (a F64Array) Get(t *Thread, i int) float64 {
	return math.Float64frombits(t.c.engine.Load(t.p, t.node.id, a.base+8*i))
}

// Set stores element i on t's node, twinning the page on the first
// write of an interval.
func (a F64Array) Set(t *Thread, i int, v float64) {
	t.c.engine.Store(t.p, t.node.id, a.base+8*i, math.Float64bits(v))
}

// I64Array is a shared array of int64 in the SDSM pool.
type I64Array struct {
	c    *Cluster
	base int
	n    int
}

// AllocI64 reserves a page-aligned shared int64 array.
func (c *Cluster) AllocI64(n int) I64Array {
	return I64Array{c: c, base: c.engine.Alloc.AllocPage(8 * n), n: n}
}

// Len returns the number of elements.
func (a I64Array) Len() int { return a.n }

// Addr returns the shared address of element i.
func (a I64Array) Addr(i int) int { return a.base + 8*i }

// Pages returns the array's page span, making it Mappable in a Target
// map clause.
func (a I64Array) Pages() []int { return pageSpan(a.base, 8*a.n) }

// pageSpan lists the pages covering [base, base+bytes).
func pageSpan(base, bytes int) []int {
	if bytes <= 0 {
		return nil
	}
	first, last := dsm.PageOf(base), dsm.PageOf(base+bytes-1)
	pages := make([]int, 0, last-first+1)
	for pg := first; pg <= last; pg++ {
		pages = append(pages, pg)
	}
	return pages
}

// Get loads element i from t's node.
func (a I64Array) Get(t *Thread, i int) int64 {
	return int64(t.c.engine.Load(t.p, t.node.id, a.base+8*i))
}

// Set stores element i on t's node.
func (a I64Array) Set(t *Thread, i int, v int64) {
	t.c.engine.Store(t.p, t.node.id, a.base+8*i, uint64(v))
}

// Scalar is a small shared variable. It has two representations: an
// 8-byte backing word in the SDSM pool (used when directives run on the
// conventional lock path) and a per-node replica set managed by the
// update protocol (used by the hybrid path, where collectives propagate
// modifications and no twin/diff is ever created for it).
type Scalar struct {
	c    *Cluster
	name string
	addr int
	vals []float64 // per-node replica (hybrid path)
	base []float64 // per-node value agreed at the last combine round
}

// ScalarVar returns the named shared scalar, creating it on first use.
// All nodes see the same object (it models a global variable of the
// translated program).
func (c *Cluster) ScalarVar(name string) *Scalar {
	if s := c.scalars[name]; s != nil {
		return s
	}
	s := &Scalar{
		c: c, name: name,
		addr: c.engine.Alloc.Alloc(8, 8),
		vals: make([]float64, c.cfg.Nodes),
		base: make([]float64, c.cfg.Nodes),
	}
	c.scalars[name] = s
	return s
}

// Name returns the scalar's name.
func (s *Scalar) Name() string { return s.name }

// SizeBytes returns the scalar's footprint, compared against the
// hybridization threshold.
func (s *Scalar) SizeBytes() int { return 8 }

// hybrid reports whether this cluster manages the scalar with the
// update protocol.
func (s *Scalar) hybrid() bool { return s.c.cfg.Mode == Hybrid }

// Get reads the scalar from t's context. On the hybrid path this is the
// node replica (updates from other nodes become visible at combine
// rounds); on the SDSM path it is a coherent shared-memory load.
func (s *Scalar) Get(t *Thread) float64 {
	if s.hybrid() {
		return s.vals[t.node.id]
	}
	t.c.engine.EnsureRead(t.p, t.node.id, s.addr)
	return t.c.engine.Mem(t.node.id).ReadF64(s.addr)
}

// Set writes the scalar in t's context. Hybrid-path writes outside a
// combine round are node-local until the next collective; the intended
// call sites are critical/atomic/single bodies, as the translator emits.
func (s *Scalar) Set(t *Thread, v float64) {
	if s.hybrid() {
		s.vals[t.node.id] = v
		return
	}
	t.c.engine.EnsureWrite(t.p, t.node.id, s.addr)
	t.c.engine.Mem(t.node.id).WriteF64(s.addr, v)
}

// Add accumulates into the scalar in t's context.
func (s *Scalar) Add(t *Thread, d float64) { s.Set(t, s.Get(t)+d) }

// Init assigns the scalar from serial context (outside a combine round):
// on the hybrid path every node replica and round base is reset so the
// next collective starts from the new value (the fork-time broadcast of
// a serial write); on the SDSM path it is an ordinary coherent store.
func (s *Scalar) Init(t *Thread, v float64) {
	if s.hybrid() {
		for i := range s.vals {
			s.vals[i] = v
			s.base[i] = v
		}
		return
	}
	s.Set(t, v)
}

// ShmPages reports how many pages the cluster's allocator has handed out
// (diagnostics; compare with dsm.PageSize).
func (c *Cluster) ShmPages() int {
	return (c.engine.Alloc.Used() + dsm.PageSize - 1) / dsm.PageSize
}
