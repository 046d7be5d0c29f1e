package dsm

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Invalid: "INVALID", Transient: "TRANSIENT", Blocked: "BLOCKED",
		ReadOnly: "READ_ONLY", Dirty: "DIRTY",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestFig5Transitions(t *testing.T) {
	allowed := []struct{ from, to State }{
		{Invalid, Transient},  // access fault starts fetch
		{Transient, Blocked},  // second thread faults during fetch
		{Transient, ReadOnly}, // fetch completes (read fault)
		{Transient, Dirty},    // fetch completes (write fault)
		{Blocked, ReadOnly},   // fetch completes, waiters released
		{Blocked, Dirty},      //
		{ReadOnly, Dirty},     // write fault: twin + dirty
		{ReadOnly, Invalid},   // write notice invalidates
		{Dirty, ReadOnly},     // barrier flush cleans
		{Dirty, Invalid},      // write notice invalidates
	}
	for _, e := range allowed {
		if !ValidTransition(e.from, e.to) {
			t.Errorf("edge %v -> %v should be allowed", e.from, e.to)
		}
	}
	forbidden := []struct{ from, to State }{
		{Invalid, ReadOnly}, // must pass through TRANSIENT (the fetch)
		{Invalid, Dirty},
		{Invalid, Blocked},
		{ReadOnly, Transient},
		{ReadOnly, Blocked},
		{Dirty, Transient},
		{Dirty, Blocked},
		{Blocked, Invalid},
		{Blocked, Transient},
		{Transient, Invalid},
	}
	for _, e := range forbidden {
		if ValidTransition(e.from, e.to) {
			t.Errorf("edge %v -> %v should be forbidden", e.from, e.to)
		}
	}
}

func TestTableInitialState(t *testing.T) {
	master := NewTable(0, 4)
	slave := NewTable(2, 4)
	for pg := 0; pg < 4; pg++ {
		if pi := master.Peek(pg); pi.State != ReadOnly || pi.Home != 0 {
			t.Errorf("master page %d = %+v", pg, pi)
		}
		if pi := slave.Peek(pg); pi.State != Invalid || pi.Home != 0 {
			t.Errorf("slave page %d = %+v", pg, pi)
		}
	}
}

func TestTableSetPanicsOnIllegalEdge(t *testing.T) {
	tab := NewTable(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("illegal INVALID -> READ_ONLY did not panic")
		}
	}()
	tab.Set(0, ReadOnly)
}

func TestMakeDiffAndApply(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	for i := range twin {
		twin[i] = byte(i)
		cur[i] = byte(i)
	}
	// Two separated modifications.
	cur[100] = 0xFF
	cur[101] = 0xFE
	cur[2000] = 0xAA
	d := MakeDiff(3, twin, cur)
	if d.Page != 3 {
		t.Fatalf("page = %d", d.Page)
	}
	if len(d.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (%+v)", len(d.Runs), d.Runs)
	}
	dst := make([]byte, PageSize)
	copy(dst, twin)
	d.Apply(dst)
	if !bytes.Equal(dst, cur) {
		t.Fatal("apply did not reconstruct the modified page")
	}
}

func TestDiffEmptyWhenUnchanged(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	d := MakeDiff(0, twin, cur)
	if !d.Empty() {
		t.Fatalf("diff of identical pages has %d runs", len(d.Runs))
	}
	if d.WireBytes() != 8 {
		t.Fatalf("empty diff wire bytes = %d", d.WireBytes())
	}
}

func TestDiffCoalescesAdjacentWords(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	for i := 64; i < 128; i++ {
		cur[i] = 1
	}
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 1 {
		t.Fatalf("adjacent modified words produced %d runs", len(d.Runs))
	}
	if d.Runs[0].Off != 64 || len(d.Runs[0].Data) != 64 {
		t.Fatalf("run = off %d len %d", d.Runs[0].Off, len(d.Runs[0].Data))
	}
}

func TestDiffWireBytesSmallerThanPageForSparseWrites(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	cur[8] = 1
	d := MakeDiff(0, twin, cur)
	if d.WireBytes() >= PageSize/4 {
		t.Fatalf("sparse diff costs %d wire bytes", d.WireBytes())
	}
}

// Property: Apply(MakeDiff(twin, cur)) onto a copy of twin always
// reconstructs cur exactly, for arbitrary modifications.
func TestDiffRoundTripProperty(t *testing.T) {
	prop := func(edits []struct {
		Off uint16
		Val byte
	}) bool {
		twin := make([]byte, PageSize)
		for i := range twin {
			twin[i] = byte(i * 7)
		}
		cur := make([]byte, PageSize)
		copy(cur, twin)
		for _, e := range edits {
			cur[int(e.Off)%PageSize] = e.Val
		}
		d := MakeDiff(0, twin, cur)
		dst := make([]byte, PageSize)
		copy(dst, twin)
		d.Apply(dst)
		return bytes.Equal(dst, cur)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryTypedAccessors(t *testing.T) {
	m := NewMemory(4, FileMapping)
	m.WriteF64(16, 3.25)
	if got := m.ReadF64(16); got != 3.25 {
		t.Fatalf("ReadF64 = %v", got)
	}
	m.WriteI64(PageSize+8, -77)
	if got := m.ReadI64(PageSize + 8); got != -77 {
		t.Fatalf("ReadI64 = %v", got)
	}
	// Untouched pages read as zero without allocating a frame.
	if got := m.ReadF64(3 * PageSize); got != 0 {
		t.Fatalf("untouched read = %v", got)
	}
	if m.FrameIfPresent(3) != nil {
		t.Fatal("read allocated a frame")
	}
}

func TestMemoryLazyFrames(t *testing.T) {
	m := NewMemory(8, FileMapping)
	if m.FrameIfPresent(5) != nil {
		t.Fatal("frame allocated before touch")
	}
	f := m.Frame(5)
	if len(f) != PageSize {
		t.Fatalf("frame len %d", len(f))
	}
	if m.FrameIfPresent(5) == nil {
		t.Fatal("frame not retained")
	}
}

func TestCopyInNilZeroes(t *testing.T) {
	m := NewMemory(1, FileMapping)
	f := m.Frame(0)
	f[10] = 9
	m.CopyIn(0, nil)
	if f[10] != 0 {
		t.Fatal("CopyIn(nil) did not zero the frame")
	}
	src := make([]byte, PageSize)
	src[10] = 42
	m.CopyIn(0, src)
	if f[10] != 42 {
		t.Fatal("CopyIn did not install contents")
	}
}

func TestDualMappingKeepsAppProtectedDuringUpdate(t *testing.T) {
	for _, strat := range []UpdateStrategy{FileMapping, SysVShm, Mdup, ChildProcess} {
		m := NewMemory(1, strat)
		m.SetAppPerm(0, PermNone)
		frame := m.BeginSystemUpdate(0)
		if m.AppReadOK(0) {
			t.Errorf("%v: application could read mid-update", strat)
		}
		frame[0] = 1
		m.EndSystemUpdate(0, PermRead)
		if !m.AppReadOK(0) || m.AppWriteOK(0) {
			t.Errorf("%v: final perm wrong", strat)
		}
	}
}

// appRead is an application read of the word at addr as hlrc's
// Engine.Load makes it, minus the fault handler: a TLB hit, or else the
// permission check and a fill. ok is false where the access would fault.
func appRead(m *Memory, addr int) (w uint64, ok bool) {
	if w, ok := m.AppLoad(addr); ok {
		return w, true
	}
	if !m.AppReadOK(addr) {
		return 0, false
	}
	m.Fill(PageOf(addr))
	return uint64(m.ReadI64(addr)), true
}

func TestSingleMappingExposesMidUpdateRead(t *testing.T) {
	// The atomic-page-update problem (paper Fig. 4): with one mapping the
	// update must open the application permission, so a concurrent
	// application read succeeds while the page is half-written. The page
	// sits in the TLB from an earlier read when a write notice
	// invalidates it; the cached translation must not let a read through
	// under a dual mapping, nor survive the update under a single one.
	for _, strat := range []UpdateStrategy{SingleMapping, FileMapping, SysVShm, Mdup, ChildProcess} {
		m := NewMemory(1, strat)
		m.WriteI64(0, 1)
		m.WriteI64(8, 1)
		m.SetAppPerm(0, PermRead)
		if w, ok := appRead(m, 0); !ok || w != 1 {
			t.Fatalf("%v: first read = %d, %v", strat, w, ok)
		}
		if _, hit := m.AppLoad(8); !hit {
			t.Fatalf("%v: a read did not fill the TLB", strat)
		}
		m.SetAppPerm(0, PermNone) // the write notice
		frame := m.BeginSystemUpdate(0)
		binary.LittleEndian.PutUint64(frame[0:], 2) // first half of the update
		w0, ok0 := appRead(m, 0)
		w8, ok8 := appRead(m, 8)
		if strat.Dual() {
			if ok0 || ok8 {
				t.Errorf("%v: application read mid-update (%d, %d)", strat, w0, w8)
			}
		} else if !ok0 || !ok8 || w0 != 2 || w8 != 1 {
			t.Errorf("%v: mid-update reads = (%d, %v), (%d, %v); want the torn page (2, 1)", strat, w0, ok0, w8, ok8)
		}
		binary.LittleEndian.PutUint64(frame[8:], 2)
		m.EndSystemUpdate(0, PermRead)
		if m.AppStore(0, 3) {
			t.Errorf("%v: the update's writable mapping outlived it in the TLB", strat)
		}
		if w, ok := appRead(m, 8); !ok || w != 2 {
			t.Errorf("%v: read after the update = %d, %v; want 2", strat, w, ok)
		}
	}
}

func TestStrategyProperties(t *testing.T) {
	if SingleMapping.Dual() {
		t.Fatal("single mapping is not dual")
	}
	for _, s := range []UpdateStrategy{FileMapping, SysVShm, Mdup, ChildProcess} {
		if !s.Dual() {
			t.Errorf("%v should be dual", s)
		}
		if s.UpdateCost() <= 0 || s.SetupCost() <= 0 {
			t.Errorf("%v costs not positive", s)
		}
	}
	// The paper found the dual methods comparable: within a small factor.
	min, max := FileMapping.UpdateCost(), FileMapping.UpdateCost()
	for _, s := range []UpdateStrategy{SysVShm, Mdup, ChildProcess} {
		c := s.UpdateCost()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max > 3*min {
		t.Fatalf("dual strategies not comparable: min %v max %v", min, max)
	}
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator(10 * PageSize)
	x := a.Alloc(10, 8)
	if x%8 != 0 {
		t.Fatalf("alloc not aligned: %d", x)
	}
	y := a.Alloc(4, 8)
	if y <= x {
		t.Fatalf("allocations overlap: %d then %d", x, y)
	}
	z := a.AllocPage(100)
	if z%PageSize != 0 {
		t.Fatalf("AllocPage not page aligned: %d", z)
	}
	if a.Used() != z+100 {
		t.Fatalf("Used = %d", a.Used())
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	a := NewAllocator(PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	a.Alloc(PageSize+1, 8)
}

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 || PageOf(PageSize-1) != 0 || PageOf(PageSize) != 1 {
		t.Fatal("PageOf boundary arithmetic wrong")
	}
}

func TestPermStrings(t *testing.T) {
	if PermNone.String() != "---" || PermRead.String() != "r--" || PermReadWrite.String() != "rw-" {
		t.Fatal("perm strings wrong")
	}
}
