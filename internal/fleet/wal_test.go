package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func walResult(i int) JobResult {
	return JobResult{
		Status:           StatusOK,
		App:              "ep",
		Mode:             "hybrid",
		ResultBits:       fmt.Sprintf("bits-%d", i),
		MemHash:          fmt.Sprintf("%016x", i),
		StateFingerprint: fmt.Sprintf("%016x", i*7),
		TimeNs:           int64(1000 + i),
		KernelNs:         int64(900 + i),
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.wal")
	w, records, rep, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL (fresh): %v", err)
	}
	if len(records) != 0 || rep.Records != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(records))
	}
	const n = 10
	for i := 0; i < n; i++ {
		res := walResult(i)
		res.ID = "req-scoped" // must be stripped on disk
		res.Cached = true
		if err := w.Append(uint64(i), fmt.Sprintf("canon-%d", i), res); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, records, rep, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL (replay): %v", err)
	}
	defer w2.Close()
	if rep.Records != n || rep.Unique != n || rep.TruncatedBytes != 0 || rep.Compacted {
		t.Fatalf("replay = %+v, want %d clean records", rep, n)
	}
	for i, rec := range records {
		if rec.FP != uint64(i) || rec.Canonical != fmt.Sprintf("canon-%d", i) {
			t.Fatalf("record %d = {fp %d, canon %q}", i, rec.FP, rec.Canonical)
		}
		want := walResult(i)
		if !reflect.DeepEqual(rec.Result, want) {
			t.Fatalf("record %d result = %+v, want %+v (request-scoped fields stripped)", i, rec.Result, want)
		}
	}
}

// TestWALReplaysRetiredFields: a record written while JobResult had a
// field it no longer has (attempts) still verifies and replays.
func TestWALReplaysRetiredFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.wal")
	res := `{"index":0,"status":"ok","cached":false,"mem_hash":"00000000000000aa","attempts":1}`
	line := fmt.Sprintf(`{"fp":"00000000000000ff","canon":"x","res":%s,"sum":%q}`+"\n",
		res, walSum("00000000000000ff", "x", []byte(res)))
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	w, records, rep, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if len(records) != 1 || rep.TruncatedBytes != 0 {
		t.Fatalf("replayed %d records, truncated %d bytes; want the one record intact", len(records), rep.TruncatedBytes)
	}
	if got := records[0].Result; got.Status != StatusOK || got.MemHash != "00000000000000aa" {
		t.Fatalf("replayed result = %+v", got)
	}
}

// TestWALCorruptTail: a torn or corrupt tail is truncated, the valid
// prefix survives, and the log accepts appends again.
func TestWALCorruptTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"partial line", `{"fp":"0000`},
		{"bad json", "not json at all\n"},
		{"bad checksum", `{"fp":"00000000000000ff","canon":"x","res":{"index":0,"status":"ok","cached":false},"sum":"0000000000000000"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "results.wal")
			w, _, _, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := w.Append(uint64(i), fmt.Sprintf("canon-%d", i), walResult(i)); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tc.tail)
			f.Close()

			w2, records, rep, err := OpenWAL(path)
			if err != nil {
				t.Fatalf("OpenWAL over corrupt tail: %v", err)
			}
			if len(records) != 3 {
				t.Fatalf("replayed %d records, want the 3 valid ones", len(records))
			}
			if rep.TruncatedBytes != int64(len(tc.tail)) {
				t.Fatalf("TruncatedBytes = %d, want %d", rep.TruncatedBytes, len(tc.tail))
			}
			if err := w2.Append(99, "canon-99", walResult(99)); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			w2.Close()

			_, records, rep, err = OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != 4 || rep.TruncatedBytes != 0 {
				t.Fatalf("after truncate+append: %d records, %d truncated; want 4 clean", len(records), rep.TruncatedBytes)
			}
		})
	}
}

// TestWALAutoCompaction: a log dominated by re-appends of the same
// fingerprints is rewritten on open to one (latest) record each.
func TestWALAutoCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.wal")
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	// 8 fingerprints x 16 generations >> compactThreshold with 2x dupes.
	for gen := 0; gen < 16; gen++ {
		for fp := 0; fp < 8; fp++ {
			if err := w.Append(uint64(fp), fmt.Sprintf("canon-%d", fp), walResult(gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.Close()
	before, _ := os.Stat(path)

	w2, records, rep, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if !rep.Compacted {
		t.Fatalf("replay = %+v, want Compacted", rep)
	}
	if rep.Records != 128 || rep.Unique != 8 {
		t.Fatalf("replay = %+v, want 128 records over 8 fingerprints", rep)
	}
	// Replay order must still give last-wins per fingerprint.
	last := map[uint64]JobResult{}
	for _, rec := range records {
		last[rec.FP] = rec.Result
	}
	for fp := 0; fp < 8; fp++ {
		if !reflect.DeepEqual(last[uint64(fp)], walResult(15)) {
			t.Fatalf("fp %d latest record = %+v, want generation 15", fp, last[uint64(fp)])
		}
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}

	_, records, rep, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compacted || rep.Records != 8 {
		t.Fatalf("post-compaction replay = %+v, want 8 records, no recompaction", rep)
	}
	for fp, rec := range records {
		if rec.FP != uint64(fp) || !reflect.DeepEqual(rec.Result, walResult(15)) {
			t.Fatalf("compacted record %d = %+v", fp, rec)
		}
	}
}

// TestWALAppendAfterCloseFails: the closed log refuses writes with a
// clear error.
func TestWALAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.wal")
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Append(1, "canon", walResult(1)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Append after Close = %v, want closed error", err)
	}
}
