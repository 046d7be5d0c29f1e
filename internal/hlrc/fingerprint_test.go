package hlrc

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"parade/internal/dsm"
	"parade/internal/sim"
)

// denseFingerprint is the StateFingerprint this package shipped while
// page tables were dense: every page of every node written through
// hash/fnv, byte at a time, zero runs and all. It stays as the
// reference the zero-run-skipping implementation is compared against —
// bench/e2e/golden.json, the WAL and the fleet cache pin its values.
func denseFingerprint(e *Engine) uint64 {
	h := fnv.New64a()
	writeInt := func(v int) { writeWord(h, uint64(int64(v))) }
	writeNoticePages := func(notices []dsm.WriteNotice) {
		pages := make([]int, 0, len(notices))
		for _, wn := range notices {
			pages = append(pages, wn.Page)
		}
		sort.Ints(pages)
		writeInt(len(pages))
		for _, pg := range pages {
			writeInt(pg)
		}
	}
	for node, ns := range e.nodes {
		writeInt(node)
		perm := dsm.PermNone // the table permission NewTable used to store
		if node == 0 {
			perm = dsm.PermRead
		}
		for pg := 0; pg < ns.table.Len(); pg++ {
			pi := ns.table.Peek(pg)
			writeInt(int(pi.State)<<16 | int(perm)<<8 | pi.Home)
			if pi.Home != node {
				continue
			}
			frame := ns.mem.FrameIfPresent(pg)
			if frame == nil {
				writeInt(0)
				continue
			}
			writeInt(1 + len(frame))
			h.Write(frame)
		}
		ids := make([]int, 0, len(ns.lockCache))
		for id := range ns.lockCache {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		writeInt(len(ids))
		for _, id := range ids {
			nl := ns.lockCache[id]
			flags := 0
			if nl.cached {
				flags |= 1
			}
			if nl.inUse {
				flags |= 2
			}
			if nl.revokePending {
				flags |= 4
			}
			writeInt(id<<8 | flags)
			writeNoticePages(nl.notices)
		}
	}
	lockIDs := make([]int, 0)
	for _, shard := range e.locks {
		for id := range shard {
			lockIDs = append(lockIDs, id)
		}
	}
	sort.Ints(lockIDs)
	writeInt(len(lockIDs))
	for _, id := range lockIDs {
		ls := e.locks[e.lockManager(id)][id]
		holder := -1
		if ls.held {
			holder = ls.holder
		}
		writeInt(id)
		writeInt(holder)
		writeInt(len(ls.queue))
		for _, q := range ls.queue {
			writeInt(q)
		}
		pages := make([]int, 0, len(ls.notices))
		for pg := range ls.notices {
			pages = append(pages, pg)
		}
		sort.Ints(pages)
		writeInt(len(pages))
		for _, pg := range pages {
			writeInt(pg)
		}
		writeInt(0) // the always-empty slot StateFingerprint keeps
	}
	mbPages := make([]int, 0, len(e.master.modifiers))
	for pg := range e.master.modifiers {
		mbPages = append(mbPages, pg)
	}
	sort.Ints(mbPages)
	writeInt(len(mbPages))
	for _, pg := range mbPages {
		set := e.master.modifiers[pg]
		mods := make([]int, 0, len(set))
		for n := range set {
			mods = append(mods, n)
		}
		sort.Ints(mods)
		writeInt(pg)
		writeInt(len(mods))
		for _, n := range mods {
			writeInt(n)
		}
	}
	if e.cls != nil {
		c := e.cls
		for pg := 0; pg < c.pages.Len(); pg++ {
			po := c.pages.Peek(pg)
			if po.class == ClassUnknown && po.cand == ClassUnknown &&
				po.streak == 0 && po.lastChangeEpoch == 0 && !po.everMod {
				continue
			}
			flags := 0
			if po.everMod {
				flags = 1
			}
			writeInt(pg)
			writeInt(int(po.class)<<24 | int(po.cand)<<16 | int(po.streak)<<8 | flags)
			writeInt(po.lastChangeEpoch)
		}
		writeInt(-1)
		foldReaderMap(writeInt, c.readers)
		foldReaderMap(writeInt, c.pending)
	}
	return h.Sum64()
}

func writeWord(h hash.Hash64, v uint64) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], v)
	h.Write(word[:])
}

// scrambleEngine drives e's fingerprinted state to a random but
// structurally valid point: the fingerprint is a pure function of that
// state, so no protocol run is needed to compare two implementations.
func scrambleEngine(e *Engine, r *rand.Rand) {
	nodes := len(e.nodes)
	npages := e.nodes[0].table.Len()
	page := func() int {
		if r.Intn(4) == 0 {
			return npages - 1 - r.Intn(min(npages, 3)) // the (possibly partial) last chunk
		}
		return r.Intn(npages)
	}
	for i := r.Intn(40); i > 0; i-- {
		pg, home := page(), r.Intn(nodes)
		// A migrated home: every directory agrees, the new home holds the
		// page valid, and its frame is the authoritative copy.
		for n, ns := range e.nodes {
			pi := ns.table.At(pg)
			pi.Home = home
			if n == home {
				pi.State = dsm.ReadOnly
			} else {
				pi.State = []dsm.State{dsm.Invalid, dsm.ReadOnly}[r.Intn(2)]
			}
		}
		switch r.Intn(3) {
		case 0: // never-materialized home frame
		case 1: // explicit zero frame
			e.nodes[home].mem.Frame(pg)
		case 2:
			f := e.nodes[home].mem.Frame(pg)
			for k := r.Intn(6); k >= 0; k-- {
				f[r.Intn(len(f))] = byte(1 + r.Intn(255))
			}
		}
	}
	for i := r.Intn(6); i > 0; i-- {
		// Frames without a directory change: a home applied diffs to a
		// page whose table chunk may never have been written.
		n := r.Intn(nodes)
		e.nodes[n].mem.Frame(page())[8*r.Intn(512)] = 0xee
	}
	notices := func() []dsm.WriteNotice {
		var out []dsm.WriteNotice
		for k := r.Intn(4); k > 0; k-- {
			out = append(out, dsm.WriteNotice{Page: page(), Modifier: r.Intn(nodes)})
		}
		return out
	}
	for i := r.Intn(5); i > 0; i-- {
		nl := e.nodes[r.Intn(nodes)].nodeLockFor(r.Intn(9))
		nl.cached, nl.inUse, nl.revokePending = r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0
		nl.notices = notices()
	}
	for i := r.Intn(4); i > 0; i-- {
		ls := e.lockState(r.Intn(9))
		ls.held, ls.holder = r.Intn(2) == 0, r.Intn(nodes)
		ls.queue = append(ls.queue, r.Intn(nodes))
		ls.notices[page()] = r.Intn(nodes)
		_ = notices() // keep the draw, so the visited states do not move
	}
	for i := r.Intn(3); i > 0; i-- {
		e.master.modifiers[page()] = map[int]bool{r.Intn(nodes): true}
	}
	if e.cls != nil {
		c := e.cls
		for epoch := 1; epoch <= 1+r.Intn(5); epoch++ {
			mods := map[int]map[int]bool{}
			for k := r.Intn(5); k > 0; k-- {
				mods[page()] = map[int]bool{r.Intn(nodes): true, r.Intn(nodes): true}
			}
			c.noteReads(r.Intn(nodes), []int{page(), page()})
			c.observe(epoch, sim.Time(epoch), mods)
		}
		c.noteReads(r.Intn(nodes), []int{page()}) // an open interval
	}
}

// TestFingerprintMatchesDenseReference: over randomized engine states,
// pool sizes with and without a partial last chunk, and every policy
// that changes what is hashed, the chunk-walking FNV register computes
// exactly the sum the dense hash/fnv walk did.
func TestFingerprintMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, shm := range []int{
		1 << 20,                                 // whole chunks
		(3*dsm.ChunkPages + 17) * dsm.PageSize,  // partial last chunk
		5 * dsm.PageSize,                        // less than one chunk
		(2*dsm.ChunkPages+1)*dsm.PageSize - 100, // byte size not page-aligned either
	} {
		for _, policy := range []string{PolicyLegacy, PolicyUpdate, PolicyAdaptive} {
			for round := 0; round < 25; round++ {
				tc := newClusterWith(Config{
					Nodes: 2 + r.Intn(3), ShmBytes: shm, HomeMigration: true,
					LockCaching: true, Strategy: dsm.FileMapping, Policy: policy,
				}, false)
				if got, want := tc.e.StateFingerprint(), denseFingerprint(tc.e); got != want {
					t.Fatalf("shm=%d policy=%q fresh engine: fingerprint %#x, dense reference %#x", shm, policy, got, want)
				}
				scrambleEngine(tc.e, r)
				if got, want := tc.e.StateFingerprint(), denseFingerprint(tc.e); got != want {
					t.Fatalf("shm=%d policy=%q round %d: fingerprint %#x, dense reference %#x", shm, policy, round, got, want)
				}
			}
		}
	}
}

// TestFingerprintMatchesDenseReferenceAfterRun: the same comparison on
// states a real protocol run produced (migration, diffs at a home whose
// directory chunk is untouched until the barrier, lock tokens).
func TestFingerprintMatchesDenseReferenceAfterRun(t *testing.T) {
	tc := newClusterWith(Config{
		Nodes: 3, ShmBytes: (2*dsm.ChunkPages + 9) * dsm.PageSize, HomeMigration: true,
		LockCaching: true, Strategy: dsm.FileMapping, Policy: PolicyAdaptive,
	}, false)
	last := (tc.e.nodes[0].table.Len() - 1) * dsm.PageSize
	tc.spawnNodes(t, func(p *sim.Proc, node int) {
		for round := 0; round < 3; round++ {
			tc.write(p, node, pageAddr(node), float64(round+node))
			tc.e.AcquireLock(p, node, 4)
			tc.write(p, node, last, tc.read(p, node, last)+1)
			tc.e.ReleaseLock(p, node, 4)
			tc.e.Barrier(p, node)
			tc.read(p, node, pageAddr((node+1)%3))
		}
	})
	if got, want := tc.e.StateFingerprint(), denseFingerprint(tc.e); got != want {
		t.Fatalf("fingerprint %#x, dense reference %#x", got, want)
	}
}

// TestFNVRegisterMatchesHashFNV: zeros(n) against n literal zero bytes,
// and word/bytes against the same bytes through hash/fnv.
func TestFNVRegisterMatchesHashFNV(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 512, 4096, 8 * 65536, 1<<20 + 3} {
		ref := fnv.New64a()
		ref.Write([]byte("seed"))
		h := fnvOffset64
		h.bytes([]byte("seed"))
		ref.Write(make([]byte, n))
		h.zeros(n)
		if uint64(h) != ref.Sum64() {
			t.Fatalf("zeros(%d) = %#x, %d zero bytes hash to %#x", n, uint64(h), n, ref.Sum64())
		}
	}
	ref := fnv.New64a()
	h := fnvOffset64
	for i := 0; i < 2000; i++ {
		switch r.Intn(4) {
		case 0: // mostly-zero words
			v := int(r.Int63()) >> uint(8*r.Intn(8)) * (1 - 2*r.Intn(2))
			writeWord(ref, uint64(int64(v)))
			h.int(v)
		case 1: // zero bytes inside and below the significant ones
			v := r.Uint64() & [...]uint64{0xff00ff0000ff0000, 0x00000000ffff0000, 0xff00000000000000, 0}[r.Intn(4)]
			writeWord(ref, v)
			h.word(v)
		case 2:
			b := make([]byte, r.Intn(160))
			r.Read(b)
			if r.Intn(2) == 0 {
				copy(b, bytes.Repeat([]byte{0}, len(b)/2))
			}
			ref.Write(b)
			h.bytes(b)
		case 3:
			n := r.Intn(100)
			ref.Write(make([]byte, n))
			h.zeros(n)
		}
		if uint64(h) != ref.Sum64() {
			t.Fatalf("step %d: register %#x, hash/fnv %#x", i, uint64(h), ref.Sum64())
		}
	}
}
