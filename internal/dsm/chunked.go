package dsm

// ChunkPages is the number of pages one lazily materialized chunk of a
// per-page table covers. A power of two, so the chunk index and the
// offset within it are a shift and a mask.
const (
	chunkShift = 6
	ChunkPages = 1 << chunkShift
	chunkMask  = ChunkPages - 1
)

// Chunked is a per-page array of n entries that pays only for the pages
// a program mutates: entries live in ChunkPages-sized chunks allocated
// on the first At inside them, and a page in an absent chunk reads as
// the initial entry. The chunk directory itself grows only as far as
// the highest materialized chunk, so an untouched table costs the same
// whatever the pool size. Chunks never move once allocated: a pointer
// returned by At stays valid across later materializations.
//
// One node's context owns a Chunked (no locking, like the rest of the
// protocol state).
type Chunked[T any] struct {
	// bounds has one zero-size element per page and no storage: indexing
	// it is the page-range check, compiled to the same compare-and-panic
	// a dense per-page slice gets ("index out of range [page] with length
	// pages"), which keeps the lookups below small enough to inline into
	// the permission check of a TLB miss.
	bounds []struct{}
	init   T
	chunks []*[ChunkPages]T
}

// NewChunked returns an n-page table whose every entry reads as init.
func NewChunked[T any](n int, init T) Chunked[T] {
	return Chunked[T]{bounds: make([]struct{}, n), init: init}
}

// Len returns the number of pages.
func (c *Chunked[T]) Len() int { return len(c.bounds) }

// chunk returns the chunk holding page pg, nil while it is absent. It
// is the one place a page number is checked against the pool, so every
// access path panics alike on a page outside it — also inside a partial
// last chunk, whose array is full-sized.
func (c *Chunked[T]) chunk(pg int) *[ChunkPages]T {
	_ = c.bounds[pg]
	if pg>>chunkShift < len(c.chunks) {
		return c.chunks[pg>>chunkShift]
	}
	return nil
}

// At returns page pg's entry for writing, materializing its chunk.
func (c *Chunked[T]) At(pg int) *T {
	ch := c.chunk(pg)
	if ch == nil {
		ch = c.materialize(pg >> chunkShift)
	}
	return &ch[pg&chunkMask]
}

// Peek returns a copy of page pg's entry without materializing
// anything. Code that only inspects an entry uses Peek, so inspection
// never makes a table grow.
func (c *Chunked[T]) Peek(pg int) T {
	if ch := c.chunk(pg); ch != nil {
		return ch[pg&chunkMask]
	}
	return c.init
}

// Materialized reports whether the chunk holding page pg exists. While
// it does not, every page of the chunk reads as the initial entry.
func (c *Chunked[T]) Materialized(pg int) bool { return c.chunk(pg) != nil }

// Each calls f on every page of every materialized chunk, in page
// order. Pages of absent chunks — all still the initial entry — are
// skipped.
func (c *Chunked[T]) Each(f func(pg int, v *T)) {
	for ci, ch := range c.chunks {
		if ch == nil {
			continue
		}
		base := ci << chunkShift
		for i := 0; i < min(ChunkPages, c.Len()-base); i++ {
			f(base+i, &ch[i])
		}
	}
}

func (c *Chunked[T]) materialize(ci int) *[ChunkPages]T {
	for len(c.chunks) <= ci {
		c.chunks = append(c.chunks, nil)
	}
	ch := new([ChunkPages]T)
	for i := range ch {
		ch[i] = c.init
	}
	c.chunks[ci] = ch
	return ch
}
