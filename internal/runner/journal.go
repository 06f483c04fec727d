package runner

import (
	"fmt"
	"os"
	"path/filepath"

	"rwp/internal/cache"
	"rwp/internal/probe"
	"rwp/internal/sim"
)

// Run journals: when Config.MetricsDir is set, every simulation job runs
// with a probe.Recorder attached and serializes it as canonical JSONL
// into <metrics-dir>/<kind>-<key>.jsonl. The file name reuses the job's
// content hash, so journals are addressed exactly like cached results;
// the content is a pure function of the key, so two runs of the same job
// — at any worker count — produce byte-identical files (enforced by
// TestJournalByteIdentityAcrossWorkers and the check.sh smoke).

// JournalPath returns the journal file a job would write under dir.
func JournalPath(dir string, k Key) string {
	return filepath.Join(dir, k.kind+"-"+k.id+".jsonl")
}

// resultRecord flattens one core's headline numbers for the journal.
func resultRecord(r sim.Result) probe.ResultRecord {
	return probe.ResultRecord{
		Workload:     r.Workload,
		Policy:       r.Policy,
		IPC:          r.IPC,
		ReadMPKI:     r.ReadMPKI,
		TotalMPKI:    r.TotalMPKI,
		WBPKI:        r.WBPKI,
		Instructions: r.Instructions,
	}
}

// journalCounts derives the journal's class and evictions records from
// the LLC's measured-region stats.
func journalCounts(s cache.Stats) probe.Counts {
	var jc probe.Counts
	for c := range jc.Classes {
		jc.Classes[c] = probe.ClassCounters{
			Accesses: s.Accesses[c], Hits: s.Hits[c], Misses: s.Misses[c],
			HitsClean: s.Hits[c] - s.HitsDirty[c], HitsDirty: s.HitsDirty[c],
			Fills: s.Misses[c] - s.Bypasses[c], FillsDirty: s.FillsDirty[c],
			Bypasses: s.Bypasses[c],
		}
	}
	jc.EvictClean, jc.EvictDirty = s.Evictions-s.DirtyEvict, s.DirtyEvict
	return jc
}

// writeJournal persists one job's journal with the cache's temp-file +
// atomic-rename discipline. Failures are non-fatal — the simulation
// result is already in hand — and are counted as DiskErrors.
func (e *Engine) writeJournal(k Key, results []probe.ResultRecord, llc cache.Stats, rec *probe.Recorder) {
	if err := writeJournalFile(JournalPath(e.metricsDir, k), e.metricsDir, k, results, journalCounts(llc), rec); err != nil {
		e.count(func(s *Stats) { s.DiskErrors++ })
	}
}

func writeJournalFile(path, dir string, k Key, results []probe.ResultRecord, counts probe.Counts, rec *probe.Recorder) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: journal %s: %w", k, err)
	}
	werr := probe.WriteJournal(tmp, probe.Header{Kind: k.kind, Desc: k.desc}, results, counts, rec)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: journal %s: %w", k, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: journal %s: %w", k, err)
	}
	return nil
}
