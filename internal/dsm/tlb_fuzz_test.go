package dsm

import (
	"encoding/binary"
	"testing"
)

// tlbFuzzPages spans three pages per TLB slot plus a partial tail, so
// fills keep evicting each other.
const tlbFuzzPages = 3*tlbSlots + 5

// FuzzMemoryTLB drives a node memory through random sequences of
// permission changes, whole-pool fills, system updates under the input's
// update strategy, page installs, TLB fills and application accesses.
// After every operation each cached page must agree with a fresh lookup:
// a read hit only where the application may read, on the page's own
// frame, and a write hit only where it may write.
//
// The input is a strategy byte followed by (op, arg) pairs. Of arg,
// bits 0-1 pick a slot and bits 2-3 one of its three pages, bits 4-5 a
// permission and bits 6-7 a word of the page.
func FuzzMemoryTLB(f *testing.F) {
	f.Add([]byte{0})
	// Fill, invalidate, read: a stale entry would hit.
	f.Add([]byte{1, 8, 0x10, 0, 0x10, 5, 0x10, 0, 0x00, 6, 0x10})
	// Single mapping: a mid-update read fills a writable entry that
	// EndSystemUpdate must evict.
	f.Add([]byte{0, 8, 0x01, 0, 0x11, 6, 0x01, 0, 0x01, 2, 0x01, 6, 0x41, 7, 0x41, 3, 0x11, 7, 0x41})
	// Aliasing pages 2, 66 and 130 in one slot, then a pool-wide fill.
	f.Add([]byte{3, 1, 0x20, 8, 0x02, 8, 0x06, 8, 0x0a, 5, 0x02, 5, 0x06, 7, 0x0a, 6, 0x02, 1, 0x10, 6, 0x06, 7, 0x0a})
	// Install a page, write it through the TLB, reinstall zeroes.
	f.Add([]byte{2, 1, 0x20, 4, 0x83, 6, 0x03, 7, 0xc3, 4, 0x03, 6, 0xc3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := NewMemory(tlbFuzzPages, UpdateStrategy(int(data[0])%5))
		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%9, ops[i+1]
			pg := int(arg&3) + tlbSlots*int((arg>>2&3)%3)
			perm := Perm((arg >> 4) % 3)
			addr := pg*PageSize + 8*int(arg>>6)
			switch op {
			case 0:
				m.SetAppPerm(pg, perm)
			case 1:
				m.FillPerm(perm)
			case 2:
				binary.LittleEndian.PutUint64(m.BeginSystemUpdate(pg)[8*int(arg>>6):], uint64(i))
			case 3:
				m.EndSystemUpdate(pg, perm)
			case 4:
				if arg&0x80 != 0 {
					m.CopyIn(pg, nil)
				} else {
					src := make([]byte, PageSize)
					binary.LittleEndian.PutUint64(src[8*int(arg>>6):], uint64(i))
					m.CopyIn(pg, src)
				}
			case 5:
				m.Fill(pg)
			case 6:
				want := uint64(m.ReadI64(addr))
				if w, ok := appRead(m, addr); ok && w != want {
					t.Fatalf("op %d: read of %#x = %d, frame holds %d", i/2, addr, w, want)
				}
			case 7:
				if m.AppStore(addr, uint64(i)) {
					if !m.AppWriteOK(addr) {
						t.Fatalf("op %d: write hit on page %d with permission %v", i/2, pg, m.AppPerm(pg))
					}
				} else if m.AppWriteOK(addr) {
					m.WriteI64(addr, int64(i))
					m.Fill(pg)
				}
				if m.AppWriteOK(addr) && uint64(m.ReadI64(addr)) != uint64(i) {
					t.Fatalf("op %d: write of %#x did not reach the frame", i/2, addr)
				}
			case 8:
				m.Frame(pg)
			}
			checkTLB(t, m, i/2)
		}
	})
}

// checkTLB compares every cached page with a fresh permission and frame
// lookup.
func checkTLB(t *testing.T, m *Memory, op int) {
	t.Helper()
	if m.tlb == nil {
		return
	}
	for pg := 0; pg < tlbFuzzPages; pg++ {
		e := m.tlb[pg&(tlbSlots-1)]
		if uint(e.pg) != uint(pg) {
			continue
		}
		if m.AppPerm(pg) < PermRead {
			t.Fatalf("op %d: page %d cached with permission %v", op, pg, m.AppPerm(pg))
		}
		if f := m.FrameIfPresent(pg); f == nil || e.frame != (*[PageSize]byte)(f) {
			t.Fatalf("op %d: page %d cached on a frame that is not its own", op, pg)
		}
		if e.writable && m.AppPerm(pg) != PermReadWrite {
			t.Fatalf("op %d: page %d cached writable with permission %v", op, pg, m.AppPerm(pg))
		}
		if _, hit := m.AppLoad(pg * PageSize); !hit {
			t.Fatalf("op %d: page %d is cached but AppLoad misses", op, pg)
		}
	}
}
