// Package dsm holds the data structures of the ParADE software
// distributed shared memory: the five-state page table of paper Fig. 5,
// the simulated MMU with dual address spaces that realizes the four
// atomic-page-update methods of §5.1, twin/diff machinery, and the
// write-notice records exchanged at barriers.
//
// The protocol logic that drives these structures lives in
// parade/internal/hlrc; this package is deliberately passive so the state
// machine can be tested in isolation.
package dsm

import "fmt"

// PageSize is the coherence unit, matching the i386 virtual memory page.
const (
	pageShift = 12
	PageSize  = 1 << pageShift
)

// State is a page's protocol state (paper Fig. 5).
type State uint8

const (
	// Invalid: the page is not present in local memory; any access faults.
	Invalid State = iota
	// Transient: a thread is fetching the page; the update is incomplete.
	Transient
	// Blocked: additional threads are waiting for the in-flight update.
	Blocked
	// ReadOnly: the page is valid and clean.
	ReadOnly
	// Dirty: the page is valid and has local modifications (a twin exists
	// unless this node is the page's home).
	Dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "INVALID"
	case Transient:
		return "TRANSIENT"
	case Blocked:
		return "BLOCKED"
	case ReadOnly:
		return "READ_ONLY"
	case Dirty:
		return "DIRTY"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ValidTransition reports whether from -> to is an edge of the Fig. 5
// state diagram (with self-loops allowed for idempotent operations).
func ValidTransition(from, to State) bool {
	switch from {
	case Invalid:
		// Access fault starts a fetch.
		return to == Transient || to == Invalid
	case Transient:
		// Another thread faults (-> Blocked), or the update completes.
		return to == Blocked || to == ReadOnly || to == Dirty || to == Transient
	case Blocked:
		// The update completes and waiters are released.
		return to == ReadOnly || to == Dirty || to == Blocked
	case ReadOnly:
		// Write fault dirties; a write notice invalidates.
		return to == Dirty || to == Invalid || to == ReadOnly
	case Dirty:
		// Barrier flush cleans; a write notice invalidates.
		return to == ReadOnly || to == Invalid || to == Dirty
	default:
		return false
	}
}

// Perm is the access permission of a page in the *application* address
// space. The system address space (used by the protocol to install
// fetched pages and apply diffs) is always writable — that separation is
// exactly the paper's fix for the atomic-page-update problem.
type Perm uint8

const (
	PermNone Perm = iota
	PermRead
	PermReadWrite
)

func (p Perm) String() string {
	switch p {
	case PermNone:
		return "---"
	case PermRead:
		return "r--"
	case PermReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("Perm(%d)", uint8(p))
	}
}

// PageInfo is one node's bookkeeping for one shared page. The page's
// access permission is not here: it is the MMU's (Memory.AppPerm).
type PageInfo struct {
	State State
	Home  int    // current home node in this node's directory
	Twin  []byte // pristine copy taken at the first write of an interval
}

// Table is one node's page table over the shared memory pool, held in
// lazily materialized chunks (Chunked): At(pg) returns the entry for
// writing, Peek(pg) a copy for inspection.
type Table struct {
	Node int
	Chunked[PageInfo]
}

// NewTable creates a page table for npages pages. On the master node
// (node 0) every page starts READ_ONLY with itself as home; elsewhere
// pages start INVALID with the master as home (paper §5.2.3).
func NewTable(node, npages int) *Table {
	init := PageInfo{State: Invalid, Home: 0}
	if node == 0 {
		init.State = ReadOnly
	}
	return &Table{Node: node, Chunked: NewChunked(npages, init)}
}

// Set transitions page pg to state to, panicking on an edge that the
// Fig. 5 diagram does not allow. Callers set the permission separately
// because the permission change is the *mechanism* (MMU) while the
// state is protocol bookkeeping — keeping them distinct is what exposes
// the atomic-page-update problem in the first place.
func (t *Table) Set(pg int, to State) {
	pi := t.At(pg)
	if !ValidTransition(pi.State, to) {
		panic(fmt.Sprintf("dsm: node %d page %d: illegal transition %v -> %v", t.Node, pg, pi.State, to))
	}
	pi.State = to
}

// PageOf returns the page index containing byte address addr. (A shift,
// not a division: this is on every shared access, and a signed division
// by a power of two costs three more instructions.)
func PageOf(addr int) int { return addr >> pageShift }
