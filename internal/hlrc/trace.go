package hlrc

import "parade/internal/obs"

// Protocol tracing and metrics flow through an optional internal/obs
// recorder: faults, fetches, flushes, barriers, migrations, and locks
// become structured events (with virtual-time latency spans),
// histograms and phase attribution. Counting is separate and always on
// (the stats registry, cnt). With no recorder attached the engine
// records nothing and pays only nil checks.

// SetRecorder attaches (or, with nil, detaches) a structured
// observability recorder.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }
