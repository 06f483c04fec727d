package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rwp/internal/probe"
	"rwp/internal/sim"
)

// Run journals: when Config.MetricsDir is set, every simulation job runs
// with a probe.Recorder attached and serializes it as canonical JSONL
// into <metrics-dir>/<kind>-<key>.jsonl. The file name reuses the job's
// content hash, so journals are addressed exactly like cached results;
// the content is a pure function of the key, so two runs of the same job
// — at any worker count — produce byte-identical files (enforced by
// TestJournalByteIdentityAcrossWorkers and TestJournalPinned).

// JournalPath returns the journal file a job would write under dir.
func JournalPath(dir string, k Key) string {
	return filepath.Join(dir, k.kind+"-"+k.id+".jsonl")
}

// writeJournal persists one job's journal with the cache's temp-file +
// atomic-rename discipline. Each core's result goes in as the JSON the
// result cache stores for it. Failures are non-fatal — the simulation
// result is already in hand — and are counted as DiskErrors.
func (e *Engine) writeJournal(k Key, results []sim.Result, rec *probe.Recorder) {
	if err := writeJournalFile(e.metricsDir, k, results, rec); err != nil {
		e.count(func(s *Stats) { s.DiskErrors++ })
	}
}

func writeJournalFile(dir string, k Key, results []sim.Result, rec *probe.Recorder) error {
	raw := make([]json.RawMessage, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("runner: journal %s: %w", k, err)
		}
		raw[i] = b
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: journal %s: %w", k, err)
	}
	werr := probe.WriteJournal(tmp, probe.Header{Kind: k.kind, Desc: k.desc}, raw, rec)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: journal %s: %w", k, werr)
	}
	if err := os.Rename(tmp.Name(), JournalPath(dir, k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: journal %s: %w", k, err)
	}
	return nil
}
