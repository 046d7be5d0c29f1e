package obs

import (
	"fmt"
	"io"
)

// TextSink renders events as the human-readable line trace: faults,
// flushes, home migrations and barrier completions, plus completion
// spans, locks, collectives, regions, directives and (when the recorder
// traces them) message sends.
type TextSink struct {
	w io.Writer
}

// NewTextSink returns a sink rendering every event kind as text.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit renders one event.
func (s *TextSink) Emit(e *Event) {
	switch e.Kind {
	case KindFetchStart:
		kind := "read"
		if e.Arg2 != 0 {
			kind = "write"
		}
		fmt.Fprintf(s.w, "[%12s] node %d: %s fault on page %d, fetching from home %d\n",
			e.Time, e.Node, kind, e.Page, e.Arg)
	case KindFlushStart:
		fmt.Fprintf(s.w, "[%12s] node %d: flush %d dirty pages, %d diff bundles\n",
			e.Time, e.Node, e.Arg, e.Arg2)
	case KindHomeMigrate:
		fmt.Fprintf(s.w, "[%12s] barrier %d: page %d home migrates %d -> %d\n",
			e.Time, e.Arg, e.Page, e.Arg2, e.Arg3)
	case KindBarrierDone:
		fmt.Fprintf(s.w, "[%12s] barrier %d: complete, %d modified pages\n",
			e.Time, e.Arg, e.Arg2)
	case KindFetch:
		fmt.Fprintf(s.w, "[%12s] node %d: page %d installed from home %d (%s)\n",
			e.Time, e.Node, e.Page, e.Arg, e.Dur)
	case KindFlush:
		fmt.Fprintf(s.w, "[%12s] node %d: flush complete, %d pages %d bundles (%s)\n",
			e.Time, e.Node, e.Arg, e.Arg2, e.Dur)
	case KindBarrier:
		fmt.Fprintf(s.w, "[%12s] node %d: barrier passed (%s)\n", e.Time, e.Node, e.Dur)
	case KindLock:
		fmt.Fprintf(s.w, "[%12s] node %d: lock %d acquired (%s)\n", e.Time, e.Node, e.Arg, e.Dur)
	case KindLockRelease:
		fmt.Fprintf(s.w, "[%12s] node %d: lock %d released\n", e.Time, e.Node, e.Arg)
	case KindCollective:
		fmt.Fprintf(s.w, "[%12s] node %d: %s %d B (%s)\n", e.Time, e.Node, e.Cat, e.Arg, e.Dur)
	case KindRegionBegin:
		fmt.Fprintf(s.w, "[%12s] region %d: fork\n", e.Time, e.Arg)
	case KindRegionEnd:
		fmt.Fprintf(s.w, "[%12s] region %d: join (%s)\n", e.Time, e.Arg, e.Dur)
	case KindDirective:
		fmt.Fprintf(s.w, "[%12s] node %d: %s %q done (%s)\n", e.Time, e.Node, e.Cat, e.Label, e.Dur)
	case KindMsgSend:
		fmt.Fprintf(s.w, "[%12s] node %d: send %d B to node %d\n", e.Time, e.Node, e.Arg2, e.Arg)
	}
}

// Close is a no-op; the sink does not own the writer.
func (s *TextSink) Close() error { return nil }
