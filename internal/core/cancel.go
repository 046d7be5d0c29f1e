package core

import (
	"fmt"
	"time"

	"parade/internal/sim"
)

// ErrCanceled matches (via errors.Is) the error Run returns when a run
// was canceled — by the Config.Cancel hook or the Config.Deadline
// wall-clock guard. It is the kernel's sentinel re-exported so callers
// need not import internal/sim.
var ErrCanceled = sim.ErrCanceled

// DeadlineError is the cause carried by a canceled run whose
// Config.Deadline wall-clock budget expired. Unwrap the run error with
// errors.As to distinguish a deadline abort from an external
// cancellation.
type DeadlineError struct {
	// Limit is the configured wall-clock budget.
	Limit time.Duration
	// Elapsed is the host time actually spent when the guard fired.
	Elapsed time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("core: wall-clock deadline %v exceeded after %v", e.Limit, e.Elapsed.Round(time.Millisecond))
}

// cancelHook combines Config.Cancel and Config.Deadline into the single
// check the kernel polls, or returns nil when neither is set. The
// deadline clock starts when the hook is built (immediately before
// sim.Run).
func cancelHook(cfg Config) func() error {
	user := cfg.Cancel
	if cfg.Deadline <= 0 {
		return user // may be nil
	}
	limit := cfg.Deadline
	start := time.Now()
	deadline := func() error {
		if elapsed := time.Since(start); elapsed > limit {
			return &DeadlineError{Limit: limit, Elapsed: elapsed}
		}
		return nil
	}
	if user == nil {
		return deadline
	}
	return func() error {
		if err := user(); err != nil {
			return err
		}
		return deadline()
	}
}
