package core

import (
	"testing"

	"parade/internal/dsm"
)

// BenchmarkF64ArrayGet is the per-element cost of the shared-array read
// every app kernel is made of, on pages the node already holds. "hit"
// reads one page over and over: every Get is a TLB hit, and must not
// allocate. "miss" alternates between two pages that share a TLB slot,
// so every Get evicts the other: the permission check, the frame lookup
// and the refill, but no fault.
func BenchmarkF64ArrayGet(b *testing.B) {
	const perPage = dsm.PageSize / 8
	for _, bc := range []struct {
		name string
		elem func(i int) int
	}{
		{"hit", func(i int) int { return i % perPage }},
		{"miss", func(i int) int { return (i & 1) * 64 * perPage }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0.0
			_, err := Run(Config{Nodes: 1}, func(m *Thread) {
				a := m.Cluster().AllocF64(65 * perPage)
				for i := 0; i < a.Len(); i += perPage {
					a.Set(m, i, 1) // the master homes every page: no fetch
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sum += a.Get(m, bc.elem(i))
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum == 0 {
				b.Fatal("read nothing back")
			}
		})
	}
}
