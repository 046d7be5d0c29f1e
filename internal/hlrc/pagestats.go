package hlrc

import (
	"fmt"
	"sort"
	"strings"

	"parade/internal/dsm"
)

// Per-page activity accounting: the diagnostic view behind the paper's
// §7 programming guidelines (find the pages that migrate or ping-pong,
// then restructure the data to stop them).

// PageStat summarizes one page's protocol activity over a run.
type PageStat struct {
	Page          int
	Fetches       int // full-page transfers served by this page's homes
	Invalidations int // coherence misses inflicted on cached copies
	Migrations    int // home changes
	Home          int // final home node
}

// pageActivity is one node's share of one page's counts.
type pageActivity struct{ fetches, inval, migrations int }

// PageReport returns the top pages by fetch count (all pages with any
// activity if top <= 0), most active first.
func (e *Engine) PageReport(top int) []PageStat {
	homes := e.nodes[0].table // the master's directory is authoritative
	total := dsm.NewChunked(homes.Len(), pageActivity{})
	for n := range e.pgStats {
		e.pgStats[n].Each(func(pg int, a *pageActivity) {
			if *a == (pageActivity{}) {
				return
			}
			t := total.At(pg)
			t.fetches += a.fetches
			t.inval += a.inval
			t.migrations += a.migrations
		})
	}
	var out []PageStat
	total.Each(func(pg int, t *pageActivity) {
		if *t == (pageActivity{}) {
			return
		}
		out = append(out, PageStat{
			Page:          pg,
			Fetches:       t.fetches,
			Invalidations: t.inval,
			Migrations:    t.migrations,
			Home:          homes.Peek(pg).Home,
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fetches != out[j].Fetches {
			return out[i].Fetches > out[j].Fetches
		}
		return out[i].Page < out[j].Page
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// RenderPageReport formats the report as an aligned table.
func RenderPageReport(stats []PageStat) string {
	var b strings.Builder
	b.WriteString("page      fetches  invalidations  migrations  home\n")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-8d %8d %14d %11d %5d\n",
			s.Page, s.Fetches, s.Invalidations, s.Migrations, s.Home)
	}
	return b.String()
}
