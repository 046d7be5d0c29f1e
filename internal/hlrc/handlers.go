package hlrc

import (
	"fmt"
	"sort"

	"parade/internal/dsm"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// handlePageReq serves a page fetch at the home node: snapshot the master
// copy and send it back.
func (e *Engine) handlePageReq(p *sim.Proc, node int, m *netsim.Message) {
	req := m.Payload.(pageReq)
	ns := e.nodes[node]
	if home := ns.table.Peek(req.Page).Home; home != node {
		panic(fmt.Sprintf("hlrc: node %d got page request for %d but home is %d",
			node, req.Page, home))
	}
	e.cpus[node].Compute(p, CostPageCopy)
	var data []byte
	if f := ns.mem.FrameIfPresent(req.Page); f != nil {
		data = e.frames.Get() // released by handlePageReply after CopyIn
		copy(data, f)
	}
	e.cnt(node).PageFetches++
	e.pgStats[node].At(req.Page).fetches++
	e.send(p, node, m.From, msgPageReply, dsm.PageSize, pageReply{Page: req.Page, Data: data})
}

// handlePageReply installs a fetched page through the system access path
// and releases the threads blocked on the fetch.
func (e *Engine) handlePageReply(p *sim.Proc, node int, m *netsim.Message) {
	rep := m.Payload.(pageReply)
	ns := e.nodes[node]
	pg := rep.Page
	e.cpus[node].Compute(p, CostPageCopy+ns.mem.Strategy().UpdateCost())
	ns.mem.BeginSystemUpdate(pg)
	ns.mem.CopyIn(pg, rep.Data)
	if rep.Data != nil {
		e.frames.Put(rep.Data)
	}
	ns.table.Set(pg, dsm.ReadOnly)
	ns.mem.EndSystemUpdate(pg, dsm.PermRead)
	gate := ns.fetch[pg]
	if gate == nil {
		if e.recov != nil {
			// A fetch reissued during recovery can race the original
			// reply (served before the crash, delivered after); the
			// second install is idempotent and wakes nobody.
			return
		}
		panic("hlrc: page reply without a pending fetch")
	}
	delete(ns.fetch, pg)
	gate.Open()
}

// handleDiff applies a flushed diff bundle at the home and acknowledges.
func (e *Engine) handleDiff(p *sim.Proc, node int, m *netsim.Message) {
	bundle := m.Payload.(diffMsg)
	ns := e.nodes[node]
	for _, d := range bundle.Diffs {
		if home := ns.table.Peek(d.Page).Home; home != node {
			panic(fmt.Sprintf("hlrc: node %d got diff for page %d but home is %d",
				node, d.Page, home))
		}
		e.cpus[node].Compute(p, CostDiffApply)
		d.ApplyInto(ns.mem.Frame(d.Page))
		e.cnt(node).DiffsApplied++
		e.forwardHomePage(p, node, d.Page)
	}
	e.send(p, node, m.From, msgDiffAck, 8, nil)
}

// handleDiffAck counts down the flusher's outstanding acknowledgements.
func (e *Engine) handleDiffAck(_ *sim.Proc, node int, m *netsim.Message) {
	ns := e.nodes[node]
	if e.recov != nil {
		delete(ns.flushAwait, m.From)
	}
	ns.flushPending--
	if ns.flushPending < 0 {
		panic("hlrc: diff ack underflow")
	}
	if ns.flushPending == 0 && ns.flushGate != nil {
		ns.flushGate.Open()
		ns.flushGate = nil
	}
}

// handleBarrierArrive runs at the master: gather write notices, and when
// the last node arrives, elect new homes and broadcast the departure.
func (e *Engine) handleBarrierArrive(p *sim.Proc, node int, m *netsim.Message) {
	if node != 0 {
		panic("hlrc: barrier arrival at non-master node")
	}
	arr := m.Payload.(barrierArrive)
	if arr.Epoch != e.epoch {
		panic(fmt.Sprintf("hlrc: arrival for epoch %d during epoch %d", arr.Epoch, e.epoch))
	}
	mb := &e.master
	for _, wn := range arr.Notices {
		set := mb.modifiers[wn.Page]
		if set == nil {
			set = map[int]bool{}
			mb.modifiers[wn.Page] = set
		}
		set[wn.Modifier] = true
		e.cnt(0).WriteNotices++
	}
	if e.cls != nil && len(arr.Reads) > 0 {
		e.cls.noteReads(m.From, arr.Reads)
	}
	mb.arrived++
	if e.recov != nil {
		e.noteArrival(m.From)
	}
	if mb.arrived < e.cfg.Nodes {
		return
	}
	e.completeBarrier(p, arr.Epoch)
}

// completeBarrier runs the last-arrival work at the master: elect homes
// and release everyone.
func (e *Engine) completeBarrier(p *sim.Proc, epoch int) {
	mb := &e.master
	// Close the classifier's interval BEFORE electing: this barrier's
	// decisions should see the classes the interval's evidence produced.
	// observe iterates a sorted page union, so the hash-map order of
	// mb.modifiers never shows through.
	if e.cls != nil {
		for _, ev := range e.cls.observe(epoch, p.Now(), mb.modifiers) {
			e.cnt(0).PolicyReclass++
			if !ev.First {
				e.rec.PolicyReclass(0, ev.SinceNs)
			}
		}
	}
	entries := make([]departEntry, 0, len(mb.modifiers))
	homes := e.nodes[0].table // any table works for reading current homes
	for pg, set := range mb.modifiers {
		mods := make([]int, 0, len(set))
		for n := range set {
			mods = append(mods, n)
		}
		if len(mods) > 1 {
			sort.Ints(mods)
		}
		cur := homes.Peek(pg).Home
		class := e.cls.classOf(pg)
		newHome := electHome(e.cfg.Policy, cur, mods, class, e.cfg.HomeMigration)
		if newHome != electHome(PolicyLegacy, cur, mods, class, e.cfg.HomeMigration) {
			e.cnt(0).PolicyHomeOverrides++
		}
		push := shouldPush(e.cfg.Policy, class, mods, len(e.nodes))
		if push {
			e.cnt(0).PolicyPushes++
		}
		entries = append(entries, departEntry{Page: pg, NewHome: newHome, Modifiers: mods, Push: push})
	}
	// Sort the entries BEFORE counting and tracing the migrations: the
	// map iteration above has no stable order, and trace output must be
	// identical across same-seed runs. The home tables are untouched
	// until the departures are handled, so the old home is still
	// readable here.
	sortEntries(entries)
	for i := range entries {
		ent := &entries[i]
		if cur := homes.Peek(ent.Page).Home; ent.NewHome != cur {
			e.cnt(0).HomeMigrations++
			e.pgStats[0].At(ent.Page).migrations++
			if e.rec != nil {
				e.rec.HomeMigrate(p.Now(), epoch, ent.Page, cur, ent.NewHome)
			}
		}
	}
	mb.modifiers = map[int]map[int]bool{}
	mb.arrived = 0
	if e.recov != nil {
		for i := range e.recov.arrivedFrom {
			e.recov.arrivedFrom[i] = false
		}
		e.recov.detectArmed = false
	}
	e.cnt(0).Barriers++
	if e.rec != nil {
		e.rec.BarrierComplete(p.Now(), epoch, len(entries))
	}

	// Advance the epoch BEFORE sending departures: each send charges CPU
	// time (the communication thread yields), and a node released by an
	// early departure can reach its next barrier while the remaining
	// departures are still being sent — it must observe the new epoch.
	e.epoch++

	bytes := 16 + 12*len(entries)
	dep := barrierDepart{Epoch: epoch, Entries: entries}
	for n := 0; n < e.cfg.Nodes; n++ {
		e.send(p, 0, n, msgBarrierDepart, bytes, dep)
	}
}

func sortEntries(entries []departEntry) {
	// Insertion sort: entry counts are small (pages modified per interval).
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Page < entries[j-1].Page; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

// handleBarrierDepart applies invalidations and home updates at one node
// and releases its representative from the barrier.
func (e *Engine) handleBarrierDepart(p *sim.Proc, node int, m *netsim.Message) {
	dep := m.Payload.(barrierDepart)
	ns := e.nodes[node]
	for _, ent := range dep.Entries {
		pi := ns.table.At(ent.Page)
		oldHome := pi.Home
		pi.Home = ent.NewHome
		soleLocal := len(ent.Modifiers) == 1 && ent.Modifiers[0] == node
		if ent.NewHome == node || soleLocal {
			// Our copy is current: we are the home that merged every
			// diff, or the only writer of the interval (a node never
			// invalidates on its own write notices). Clean for the next
			// interval.
			if pi.State == dsm.Dirty {
				ns.table.Set(ent.Page, dsm.ReadOnly)
			}
			if pi.Twin != nil {
				e.frames.Put(pi.Twin)
				pi.Twin = nil
			}
			ns.mem.SetAppPerm(ent.Page, dsm.PermRead)
			if ent.NewHome == node && oldHome != node {
				// The page migrated INTO this node: its frame just
				// became the authoritative copy, so the buddy mirror
				// must cover it from here on.
				e.forwardHomePage(p, node, ent.Page)
			}
			continue
		}
		// Someone else's modification invalidates our copy (coherence
		// miss, §5.2.3).
		switch pi.State {
		case dsm.ReadOnly, dsm.Dirty:
			ns.table.Set(ent.Page, dsm.Invalid)
			ns.mem.SetAppPerm(ent.Page, dsm.PermNone)
			if pi.Twin != nil {
				e.frames.Put(pi.Twin)
				pi.Twin = nil
			}
			e.cnt(node).Invalidations++
			e.bumpInval(node, ent.Page)
			e.rec.Invalidated(node, ent.Page)
			if ent.Push {
				// Update propagation: this node held a copy, so it
				// re-fetches eagerly once the barrier gate opens
				// (refreshPages). Entries arrive page-sorted, so the
				// queue is too.
				ns.refreshPending = append(ns.refreshPending, ent.Page)
			}
		case dsm.Invalid:
			// Nothing cached; only the directory update matters.
		default:
			panic(fmt.Sprintf("hlrc: page %d in %v during barrier", ent.Page, pi.State))
		}
	}
	// The interval ended: every local modification was flushed before the
	// arrival, so dirty bookkeeping must already be clean.
	if len(ns.dirty) != 0 {
		panic("hlrc: dirty pages survived the barrier flush")
	}
	gate := ns.barrierGate
	ns.barrierGate = nil
	gate.Open()
}
