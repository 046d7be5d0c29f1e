package dsm

import (
	"fmt"
	"strings"
	"testing"
)

// materialized counts the chunks of c that exist.
func materialized[T any](c *Chunked[T]) int {
	k := 0
	for base := 0; base < c.Len(); base += ChunkPages {
		if c.Materialized(base) {
			k++
		}
	}
	return k
}

func TestChunkedPeekNeverMaterializes(t *testing.T) {
	c := NewChunked(10*ChunkPages, 7)
	for pg := 0; pg < c.Len(); pg++ {
		if got := c.Peek(pg); got != 7 {
			t.Fatalf("page %d reads %d, want the initial 7", pg, got)
		}
	}
	seen := 0
	c.Each(func(int, *int) { seen++ })
	if k := materialized(&c); k != 0 || seen != 0 {
		t.Fatalf("inspection materialized %d chunks (Each saw %d pages)", k, seen)
	}
	*c.At(3*ChunkPages + 5) = 9
	if k := materialized(&c); k != 1 {
		t.Fatalf("one At materialized %d chunks", k)
	}
	// The rest of the touched chunk still reads as the initial entry.
	if c.Peek(3*ChunkPages+5) != 9 || c.Peek(3*ChunkPages+4) != 7 || c.Peek(3*ChunkPages+6) != 7 {
		t.Fatal("a write leaked into its chunk neighbours")
	}
}

func TestChunkedAtPointersSurviveMaterialization(t *testing.T) {
	c := NewChunked(64*ChunkPages, 0)
	first := c.At(1)
	*first = 11
	// Materialize every other chunk, highest first, so the directory is
	// regrown several times after first was taken.
	for base := c.Len() - ChunkPages; base >= 0; base -= ChunkPages {
		*c.At(base) += 1
	}
	*first = 42
	if c.At(1) != first || c.Peek(1) != 42 {
		t.Fatal("At pointer went stale after later materializations")
	}
}

func TestTableAndMemoryInitialEntriesPerNode(t *testing.T) {
	for _, node := range []int{0, 1, 5} {
		tab := NewTable(node, 3*ChunkPages)
		want := PageInfo{State: Invalid}
		if node == 0 {
			want.State = ReadOnly
		}
		tab.At(ChunkPages).Home = 3 // materialize the middle chunk only
		for _, pg := range []int{0, ChunkPages + 1, 3*ChunkPages - 1} {
			if got := tab.Peek(pg); got.State != want.State || got.Home != 0 || got.Twin != nil {
				t.Errorf("node %d page %d = %+v, want %+v", node, pg, got, want)
			}
		}
		if materialized(&tab.Chunked) != 1 {
			t.Errorf("node %d: %d chunks for one write", node, materialized(&tab.Chunked))
		}
	}
	m := NewMemory(2*ChunkPages, FileMapping)
	if m.AppPerm(0) != PermNone || m.AppReadOK(ChunkPages*PageSize) || m.Materialized(0) {
		t.Fatal("fresh memory is not all-protected and empty")
	}
	// Re-stating a page's permission is not a mutation.
	m.SetAppPerm(5, PermNone)
	if m.ReadF64(5*PageSize) != 0 || m.FrameIfPresent(5) != nil || m.Materialized(5) {
		t.Fatal("inspecting memory materialized a chunk")
	}
}

func TestFillPermCoversExistingAndFutureChunks(t *testing.T) {
	m := NewMemory(4*ChunkPages, FileMapping)
	m.SetAppPerm(1, PermReadWrite) // chunk 0 exists before the fill
	m.FillPerm(PermRead)
	if m.AppPerm(1) != PermRead || m.AppPerm(2) != PermRead {
		t.Fatal("FillPerm missed an existing chunk")
	}
	if m.AppPerm(3*ChunkPages) != PermRead || m.Materialized(3*ChunkPages) {
		t.Fatal("FillPerm missed (or materialized) an absent chunk")
	}
	// A chunk born after the fill starts from the filled permission.
	m.Frame(3 * ChunkPages)
	if m.AppPerm(3*ChunkPages+7) != PermRead {
		t.Fatal("a chunk materialized after FillPerm lost the permission")
	}
}

// TestPartialLastChunk: a pool whose page count is not a multiple of
// ChunkPages bounds-checks like a dense table, chunk array or not.
func TestPartialLastChunk(t *testing.T) {
	const n = 2*ChunkPages + 5
	c := NewChunked(n, 1)
	*c.At(n - 1) = 2 // materialize the partial chunk
	visited := 0
	c.Each(func(pg int, _ *int) {
		if pg >= n {
			t.Fatalf("Each visited page %d of a %d-page table", pg, n)
		}
		visited++
	})
	if visited != 5 {
		t.Fatalf("Each visited %d pages of the partial chunk, want 5", visited)
	}
	mem := NewMemory(n, FileMapping)
	mem.Frame(n - 1)
	for name, access := range map[string]func(pg int){
		"Peek":         func(pg int) { c.Peek(pg) },
		"At":           func(pg int) { c.At(pg) },
		"Materialized": func(pg int) { c.Materialized(pg) },
		"AppPerm":      func(pg int) { mem.AppPerm(pg) },
		"ReadF64":      func(pg int) { mem.ReadF64(pg * PageSize) },
		"WriteF64":     func(pg int) { mem.WriteF64(pg*PageSize, 1) },
		"SetAppPerm":   func(pg int) { mem.SetAppPerm(pg, PermRead) },
	} {
		access(n - 1) // the last page is fine
		for _, pg := range []int{n, 3*ChunkPages - 1, 3 * ChunkPages, -1} {
			msg := panicMessage(func() { access(pg) })
			// The panic names the page and the pool size.
			if !strings.Contains(msg, fmt.Sprintf("[%d]", pg)) || (pg >= 0 && !strings.Contains(msg, fmt.Sprintf("length %d", n))) {
				t.Errorf("%s(%d) on a %d-page pool: panic %q", name, pg, n, msg)
			}
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return "no panic"
}
