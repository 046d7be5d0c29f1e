package dsm

// The simulated MMU. A real page-based SDSM manipulates page protections
// with mprotect and catches SIGSEGV; under the Go runtime that mechanism
// is unavailable (the runtime owns signal handling), so the MMU is
// modeled explicitly: each page has a frame holding its contents and an
// *application* address space permission, and the protocol writes
// through a separate *system* path.
//
// §5.1 of the paper describes the atomic-page-update problem: in a
// single-mapping system the fault handler must make the application page
// writable before copying in the fetched contents, which lets a second
// application thread read a half-updated page without faulting. The four
// remedies (file mapping, System V shared memory, the mdup() syscall,
// child process creation) all create a second, always-writable mapping of
// the same physical frame. UpdateStrategy selects between the buggy
// single-mapping behaviour (for demonstrating the race) and the dual
// mappings (used by the runtime).

import (
	"encoding/binary"
	"math"

	"parade/internal/sim"
)

// UpdateStrategy selects how the system path gains write access to a
// page frame while the application path stays protected.
type UpdateStrategy int

const (
	// SingleMapping reproduces the unprotected update of a conventional
	// single-threaded SDSM: the application mapping is made writable for
	// the duration of the update. Racy in a multi-threaded node.
	SingleMapping UpdateStrategy = iota
	// FileMapping maps a file twice (mmap), the conventional remedy.
	FileMapping
	// SysVShm attaches a System V shared memory segment twice (shmat).
	SysVShm
	// Mdup uses the paper's custom mdup() syscall to duplicate page
	// table entries for an anonymous region.
	Mdup
	// ChildProcess forks a child whose page table shares the frames.
	ChildProcess
)

func (u UpdateStrategy) String() string {
	switch u {
	case SingleMapping:
		return "single-mapping"
	case FileMapping:
		return "file-mapping"
	case SysVShm:
		return "sysv-shm"
	case Mdup:
		return "mdup"
	case ChildProcess:
		return "child-process"
	default:
		return "unknown"
	}
}

// Dual reports whether the strategy provides a second access path, i.e.
// whether the application mapping can stay protected during updates.
func (u UpdateStrategy) Dual() bool { return u != SingleMapping }

// UpdateCost is the extra per-update CPU cost of the strategy's access
// path relative to a plain store. The paper's companion study found the
// dual methods comparable on Linux; the numbers preserve that ordering
// without pretending precision.
func (u UpdateStrategy) UpdateCost() sim.Duration {
	switch u {
	case SingleMapping:
		return 2 * sim.Microsecond // two mprotect calls
	case FileMapping:
		return 1 * sim.Microsecond
	case SysVShm:
		return 1 * sim.Microsecond
	case Mdup:
		return 800 * sim.Nanosecond
	case ChildProcess:
		return 1200 * sim.Nanosecond
	default:
		return 0
	}
}

// memPage is one page of a node's memory image: its frame (nil until
// first touched through the system path) and its application address
// space permission, side by side so a TLB fill — permission check, then
// frame — stays within one entry.
type memPage struct {
	frame []byte
	perm  Perm
}

// Memory is one node's view of the shared pool: lazily-allocated frames
// plus the application address space permissions, in lazily
// materialized chunks. Frames double as the "physical memory"; the
// system path writes them directly.
//
// tlb is the node's software TLB: a direct-mapped cache of the pages
// the application path may access, so an access that hits pays neither
// chunk lookup. It is allocated on the first Fill, so a node whose
// application never touches shared memory pays nothing for it.
type Memory struct {
	strategy UpdateStrategy
	pages    Chunked[memPage]
	tlb      *[tlbSlots]tlbEntry
}

// tlbSlots is the number of TLB entries; page pg maps to slot
// pg&(tlbSlots-1). tlbEmpty is the page number of an empty slot: no
// address maps to it, since a negative page compares as a uint above
// every uint32 and Fill caches no page at or beyond it.
const (
	tlbSlots = 64
	tlbEmpty = ^uint32(0)
)

// tlbEntry caches one page's frame and whether the application may
// write it. An entry is valid exactly as long as the page's application
// permission is the one it was filled under: SetAppPerm evicts the page
// on a change and FillPerm empties the table, and a frame, once
// allocated, never moves.
type tlbEntry struct {
	frame    *[PageSize]byte
	pg       uint32
	writable bool
}

// NewMemory creates a node memory image of npages pages, all protected.
func NewMemory(npages int, strategy UpdateStrategy) *Memory {
	return &Memory{strategy: strategy, pages: NewChunked(npages, memPage{})}
}

// Strategy returns the atomic-page-update strategy in use.
func (m *Memory) Strategy() UpdateStrategy { return m.strategy }

// NPages returns the number of pages in the pool.
func (m *Memory) NPages() int { return m.pages.Len() }

// Materialized reports whether the chunk holding page pg exists; while
// it does not, every page of it has no frame and the permission FillPerm
// last set (none at first).
func (m *Memory) Materialized(pg int) bool { return m.pages.Materialized(pg) }

// Frame returns page pg's frame, allocating a zero frame on first touch.
// This is the system access path: no permission check.
func (m *Memory) Frame(pg int) []byte {
	mp := m.pages.At(pg)
	if mp.frame == nil {
		mp.frame = make([]byte, PageSize)
	}
	return mp.frame
}

// FrameIfPresent returns the frame or nil if the page was never touched.
func (m *Memory) FrameIfPresent(pg int) []byte {
	if ch := m.pages.chunk(pg); ch != nil {
		return ch[pg&chunkMask].frame
	}
	return nil
}

// AppPerm returns the application address space permission of page pg.
func (m *Memory) AppPerm(pg int) Perm {
	if ch := m.pages.chunk(pg); ch != nil {
		return ch[pg&chunkMask].perm
	}
	return m.pages.init.perm
}

// SetAppPerm changes the application mapping's permission (mprotect),
// evicting the page from the TLB. Re-stating the permission a page
// already has touches nothing.
func (m *Memory) SetAppPerm(pg int, p Perm) {
	if m.AppPerm(pg) != p {
		m.pages.At(pg).perm = p
		if m.tlb != nil && uint(m.tlb[pg&(tlbSlots-1)].pg) == uint(pg) {
			m.tlb[pg&(tlbSlots-1)] = tlbEntry{pg: tlbEmpty}
		}
	}
}

// FillPerm sets the application permission of every page of the pool,
// including those in chunks not yet materialized, and empties the TLB.
func (m *Memory) FillPerm(p Perm) {
	m.pages.init.perm = p
	m.pages.Each(func(_ int, mp *memPage) { mp.perm = p })
	if m.tlb != nil {
		m.flushTLB()
	}
}

// flushTLB empties every TLB slot.
func (m *Memory) flushTLB() {
	for i := range m.tlb {
		m.tlb[i] = tlbEntry{pg: tlbEmpty}
	}
}

// AppLoad is the application read path's TLB probe: the word at addr and
// true if the TLB maps addr's page, false on a miss. After a miss the
// protocol grants access (hlrc's EnsureRead), Fill caches the page and
// ReadI64 loads the word.
func (m *Memory) AppLoad(addr int) (uint64, bool) {
	if m.tlb != nil {
		if e := &m.tlb[addr>>pageShift&(tlbSlots-1)]; uint(e.pg) == uint(addr>>pageShift) {
			return binary.LittleEndian.Uint64(e.frame[addr&(PageSize-1):]), true
		}
	}
	return 0, false
}

// AppStore is the application write path's TLB probe: it stores w at
// addr and reports true if the TLB maps addr's page writable, and does
// nothing on a miss.
func (m *Memory) AppStore(addr int, w uint64) bool {
	if m.tlb != nil {
		if e := &m.tlb[addr>>pageShift&(tlbSlots-1)]; uint(e.pg) == uint(addr>>pageShift) && e.writable {
			binary.LittleEndian.PutUint64(e.frame[addr&(PageSize-1):], w)
			return true
		}
	}
	return false
}

// Fill caches page pg in the TLB under its current application
// permission, replacing whatever page shared its slot. A page the
// application may not read is not cached, and neither is one without a
// frame: it reads as zero through ReadI64, and caching it would allocate
// its frame.
func (m *Memory) Fill(pg int) {
	ch := m.pages.chunk(pg)
	if ch == nil || uint(pg) >= uint(tlbEmpty) {
		return // an absent chunk holds no frame
	}
	mp := &ch[pg&chunkMask]
	if mp.perm < PermRead || mp.frame == nil {
		return
	}
	if m.tlb == nil {
		m.tlb = new([tlbSlots]tlbEntry)
		m.flushTLB()
	}
	m.tlb[pg&(tlbSlots-1)] = tlbEntry{frame: (*[PageSize]byte)(mp.frame), pg: uint32(pg), writable: mp.perm == PermReadWrite}
}

// AppReadOK reports whether an application-path read of addr would
// succeed, i.e. whether the access faults: the check a TLB miss takes.
func (m *Memory) AppReadOK(addr int) bool { return m.AppPerm(PageOf(addr)) >= PermRead }

// AppWriteOK reports whether an application-path write of addr would
// succeed.
func (m *Memory) AppWriteOK(addr int) bool { return m.AppPerm(PageOf(addr)) == PermReadWrite }

// BeginSystemUpdate prepares page pg for a protocol update (installing a
// fetched page or applying a diff). With a dual-mapping strategy the
// application permission is untouched; with SingleMapping the
// application mapping itself must be opened for writing — the root of
// the atomic-page-update problem. It returns the writable frame.
func (m *Memory) BeginSystemUpdate(pg int) []byte {
	if !m.strategy.Dual() {
		m.SetAppPerm(pg, PermReadWrite)
	}
	return m.Frame(pg)
}

// EndSystemUpdate completes a protocol update, installing the final
// application permission.
func (m *Memory) EndSystemUpdate(pg int, finalPerm Perm) {
	m.SetAppPerm(pg, finalPerm)
}

// Typed accessors over the pool. Addresses are byte offsets into the
// shared address space; 8-byte values must be 8-byte aligned so they
// never straddle a page boundary. These perform NO permission check and
// bypass the TLB — the protocol layer's EnsureRead/EnsureWrite runs
// first.

// load returns the 8-byte word at addr; a page never touched through the
// system path reads as zero without allocating its frame. An application
// read that misses the TLB ends here, as do the protocol's own reads.
func (m *Memory) load(addr int) uint64 {
	if f := m.FrameIfPresent(addr >> pageShift); f != nil {
		return binary.LittleEndian.Uint64(f[addr&(PageSize-1):])
	}
	return 0
}

// store writes the 8-byte word at addr, allocating the frame on first
// touch (the only case that pays Frame's materializing lookup).
func (m *Memory) store(addr int, w uint64) {
	pg := PageOf(addr)
	f := m.FrameIfPresent(pg)
	if f == nil {
		f = m.Frame(pg)
	}
	binary.LittleEndian.PutUint64(f[addr&(PageSize-1):], w)
}

// ReadF64 loads the float64 at addr.
func (m *Memory) ReadF64(addr int) float64 { return math.Float64frombits(m.load(addr)) }

// WriteF64 stores v at addr.
func (m *Memory) WriteF64(addr int, v float64) { m.store(addr, math.Float64bits(v)) }

// ReadI64 loads the int64 at addr.
func (m *Memory) ReadI64(addr int) int64 { return int64(m.load(addr)) }

// WriteI64 stores v at addr.
func (m *Memory) WriteI64(addr int, v int64) { m.store(addr, uint64(v)) }

// CopyIn installs src as the new contents of page pg via the system
// path. A nil src means the home never touched the page (all zeroes).
func (m *Memory) CopyIn(pg int, src []byte) {
	dst := m.Frame(pg)
	if src == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, src)
}

// Allocator is a bump allocator over the shared address space.
type Allocator struct {
	next int
	size int
}

// NewAllocator creates an allocator over a pool of size bytes.
func NewAllocator(size int) *Allocator { return &Allocator{size: size} }

// Alloc reserves n bytes with the given alignment and returns the base
// address. It panics when the pool is exhausted — shared memory in the
// paper's runtime is likewise a fixed-size pool.
func (a *Allocator) Alloc(n, align int) int {
	if align <= 0 {
		align = 8
	}
	base := (a.next + align - 1) / align * align
	if base+n > a.size {
		panic("dsm: shared memory pool exhausted")
	}
	a.next = base + n
	return base
}

// AllocPage reserves n bytes starting on a fresh page, so that unrelated
// allocations never share a page (the paper's §7 guideline for reducing
// false sharing).
func (a *Allocator) AllocPage(n int) int { return a.Alloc(n, PageSize) }

// Used returns the number of bytes allocated so far.
func (a *Allocator) Used() int { return a.next }
