package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// WAL is the durable result store: an append-only JSONL write-ahead log
// of completed (StatusOK) job results, keyed by the canonical FNV config
// fingerprint. Every record carries a checksum over its own payload;
// OpenWAL replays the valid prefix (rewarming the dedupe cache) and
// truncates the file at the first corrupt record — the crash-consistency
// rule for a log whose tail may hold a half-written line after SIGKILL.
// Appends are fsynced, so a record that was ever observable to a client
// survives a crash.
//
// Determinism makes replayed results exact, not approximate: a run is a
// pure function of its canonical config (DESIGN.md §6c), so the stored
// result of a fingerprint is bit-identical to what a re-execution would
// produce, and a restarted server can serve it from cache without ever
// re-running the cell.
//
// WAL is safe for concurrent use.
type WAL struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	w      *bufio.Writer
	closed bool

	appends      int64
	appendErrors int64
	compactions  int64
}

// WALRecord is one durable result: the dedupe-cache triple.
type WALRecord struct {
	FP        uint64
	Canonical string
	Result    JobResult
}

// WALReplay summarizes what OpenWAL recovered.
type WALReplay struct {
	// Records is the number of valid records replayed.
	Records int
	// Unique is the number of distinct fingerprints among them.
	Unique int
	// TruncatedBytes is the corrupt-tail length cut from the file
	// (0 for a clean log).
	TruncatedBytes int64
	// Compacted reports that the log was rewritten to one record per
	// fingerprint during open.
	Compacted bool
	// Elapsed is the host time the replay took.
	Elapsed time.Duration
}

// walEntry is the on-disk line format. Sum is the FNV-1a hash (hex) of
// "fp|canon|" + the result's JSON encoding, the bytes of Res as written.
// Verification hashes those bytes as read, so a record keeps verifying
// after JobResult gains or loses a field.
type walEntry struct {
	FP    string          `json:"fp"`
	Canon string          `json:"canon"`
	Res   json.RawMessage `json:"res"`
	Sum   string          `json:"sum"`
}

func walSum(fp, canon string, resJSON []byte) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|", fp, canon)
	h.Write(resJSON)
	return fmt.Sprintf("%016x", h.Sum64())
}

// decodeWALLine parses and verifies one log line. ok=false marks a
// corrupt record (bad JSON, bad checksum, bad fingerprint).
func decodeWALLine(line []byte) (WALRecord, bool) {
	var ent walEntry
	if err := json.Unmarshal(line, &ent); err != nil {
		return WALRecord{}, false
	}
	fp, err := strconv.ParseUint(ent.FP, 16, 64)
	if err != nil {
		return WALRecord{}, false
	}
	var res JobResult
	if walSum(ent.FP, ent.Canon, ent.Res) != ent.Sum || json.Unmarshal(ent.Res, &res) != nil {
		return WALRecord{}, false
	}
	return WALRecord{FP: fp, Canonical: ent.Canon, Result: res}, true
}

// compactThreshold: a log at least this long with >= 2x duplication per
// fingerprint is rewritten on open.
const compactThreshold = 64

// OpenWAL opens (creating if absent) the log at path, replays its valid
// prefix in append order, truncates any corrupt tail, and compacts the
// log to one record per fingerprint when duplication warrants it. The
// returned records are in original append order (later records for the
// same fingerprint appear later — replay them in order and last wins,
// matching cache semantics).
func OpenWAL(path string) (*WAL, []WALRecord, WALReplay, error) {
	start := time.Now()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, WALReplay{}, fmt.Errorf("fleet: opening WAL %s: %w", path, err)
	}
	var (
		records []WALRecord
		unique  = map[uint64]int{}
		valid   int64 // byte offset past the last valid record
		corrupt bool
	)
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A partial final line (no terminator) is a torn append.
			corrupt = len(line) > 0
			break
		}
		if err != nil {
			f.Close()
			return nil, nil, WALReplay{}, fmt.Errorf("fleet: reading WAL %s: %w", path, err)
		}
		rec, ok := decodeWALLine(line[:len(line)-1])
		if !ok {
			corrupt = true
			break
		}
		records = append(records, rec)
		unique[rec.FP] = len(records) - 1
		valid += int64(len(line))
	}
	rep := WALReplay{Records: len(records), Unique: len(unique)}
	if corrupt {
		end, err := f.Seek(0, io.SeekEnd)
		if err == nil {
			rep.TruncatedBytes = end - valid
		}
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, rep, fmt.Errorf("fleet: truncating corrupt WAL tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, rep, fmt.Errorf("fleet: seeking WAL %s: %w", path, err)
	}
	w := &WAL{path: path, f: f, w: bufio.NewWriter(f)}
	if len(records) >= compactThreshold && len(records) >= 2*len(unique) {
		// Rewrite to the latest record per fingerprint, preserving append
		// order of the survivors.
		live := make([]WALRecord, 0, len(unique))
		for i, rec := range records {
			if unique[rec.FP] == i {
				live = append(live, rec)
			}
		}
		if err := w.rewrite(live); err != nil {
			f.Close()
			return nil, nil, rep, err
		}
		rep.Compacted = true
	}
	rep.Elapsed = time.Since(start)
	return w, records, rep, nil
}

// Append durably logs one completed result: marshal, checksum, write,
// flush, fsync. Call only for StatusOK results (the only ones the cache
// stores).
func (w *WAL) Append(fp uint64, canonical string, res JobResult) error {
	line, err := encodeWALLine(fp, canonical, res)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("fleet: WAL %s closed", w.path)
	}
	if _, err := w.w.Write(line); err != nil {
		w.appendErrors++
		return fmt.Errorf("fleet: appending to WAL %s: %w", w.path, err)
	}
	if err := w.w.Flush(); err != nil {
		w.appendErrors++
		return fmt.Errorf("fleet: flushing WAL %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		w.appendErrors++
		return fmt.Errorf("fleet: syncing WAL %s: %w", w.path, err)
	}
	w.appends++
	return nil
}

func encodeWALLine(fp uint64, canonical string, res JobResult) ([]byte, error) {
	// Strip per-request fields so a record is the pure (config -> result)
	// mapping: ID and Index belong to the batch that ran it, and a
	// replayed result is served as a cache hit.
	res.ID = ""
	res.Index = 0
	res.Cached = false
	fpHex := fmt.Sprintf("%016x", fp)
	resJSON, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding WAL record: %w", err)
	}
	ent := walEntry{FP: fpHex, Canon: canonical, Res: resJSON, Sum: walSum(fpHex, canonical, resJSON)}
	line, err := json.Marshal(ent)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding WAL record: %w", err)
	}
	return append(line, '\n'), nil
}

// rewrite atomically replaces the log's contents with the given records
// (write temp file, fsync, rename) and switches appends to the new file.
// Caller holds no lock (open path) or the WAL lock (Compact).
func (w *WAL) rewrite(records []WALRecord) error {
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(w.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("fleet: compacting WAL %s: %w", w.path, err)
	}
	tmpPath := tmp.Name()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	for _, rec := range records {
		line, err := encodeWALLine(rec.FP, rec.Canonical, rec.Result)
		if err == nil {
			_, err = bw.Write(line)
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("fleet: compacting WAL %s: %w", w.path, err)
		}
	}
	if err := bw.Flush(); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync()
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("fleet: compacting WAL %s: %w", w.path, err)
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("fleet: compacting WAL %s: %w", w.path, err)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: reopening compacted WAL %s: %w", w.path, err)
	}
	w.f.Close()
	w.f = f
	w.w = bufio.NewWriter(f)
	w.compactions++
	return nil
}

// Compact rewrites the log to exactly the given records (typically the
// live cache contents), atomically.
func (w *WAL) Compact(records []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("fleet: WAL %s closed", w.path)
	}
	return w.rewrite(records)
}

// WALStats is a point-in-time snapshot of the WAL counters.
type WALStats struct {
	Appends      int64
	AppendErrors int64
	Compactions  int64
}

// Stats returns a snapshot of the WAL counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{Appends: w.appends, AppendErrors: w.appendErrors, Compactions: w.compactions}
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close flushes and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("fleet: closing WAL %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("fleet: closing WAL %s: %w", w.path, err)
	}
	return w.f.Close()
}
