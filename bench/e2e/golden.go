package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
)

// goldenCell pins what one cell must produce: the exact-bits result
// fingerprint, the final DSM state hash, and the kernel virtual time.
// The serve workloads pin only the fault-free bits and state hash per
// app and mode (their virtual time depends on the job seed).
type goldenCell struct {
	Bits    string `json:"bits"`
	MemHash string `json:"mem_hash"`
	VirtNs  int64  `json:"virt_ns,omitempty"`
}

// diff says how got departs from the golden; empty when it matches.
func (g goldenCell) diff(got goldenCell) string {
	switch {
	case g == goldenCell{}:
		return "no golden pinned for this cell (run -update-golden)"
	case g.Bits != got.Bits:
		return fmt.Sprintf("result bits %s, golden %s", got.Bits, g.Bits)
	case g.MemHash != got.MemHash:
		return fmt.Sprintf("MemHash %s, golden %s", got.MemHash, g.MemHash)
	case g.VirtNs != got.VirtNs:
		return fmt.Sprintf("virtual time %d ns, golden %d ns", got.VirtNs, g.VirtNs)
	}
	return ""
}

// goldenFile maps workload name to cell name to pinned values.
type goldenFile map[string]map[string]goldenCell

func loadGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loading goldens: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("loading goldens: %s: %w", path, err)
	}
	return g, nil
}

// updateGolden re-pins every workload (or the one named) from its
// reference runs and rewrites the golden file.
func updateGolden(opt options) error {
	g, err := loadGolden(opt.golden)
	if errors.Is(err, os.ErrNotExist) {
		g, err = goldenFile{}, nil
	}
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if opt.workload != "" && opt.workload != w.name {
			continue
		}
		runtime.GOMAXPROCS(w.gomaxprocs(runtime.NumCPU()))
		ref, err := w.reference()
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		g[w.name] = ref
		fmt.Fprintf(os.Stderr, "e2e: pinned %d cells of %s\n", len(ref), w.name)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(opt.golden, append(data, '\n'), 0o644)
}
