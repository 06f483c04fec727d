package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwp/internal/hier"
)

// pinnedJournals are journals written by the binary of an earlier
// commit; a change to how the journal is derived must reproduce each one
// byte for byte. The first three predate the move of the LLC's
// per-class counts from per-access probe events into cache.Stats:
// mcf/rrp bypasses stores and writebacks, mcf/rwp retargets and samples
// intervals, and mix4/rwp takes the multi-core path, whose counts are
// the shared LLC's measured-region delta. The two warm0 rows predate the
// single-core loop becoming the one-core case of the multi-core loop:
// they measure from the first access (the probe is attached before
// anything runs), single-core and on a 2-core mix, over the same 110 000
// accesses per core as the others. To regenerate, delete a file and run
// the test once: it rewrites the file and fails, so a silent
// regeneration cannot pass CI.
var pinnedJournals = []struct {
	name    string
	policy  string
	mix     []string // one benchmark runs single-core
	warmup  uint64
	measure uint64
}{
	{name: "mcf-rrp", policy: "rrp", mix: []string{"mcf"}, warmup: 30_000, measure: 80_000},
	{name: "mcf-rwp", policy: "rwp", mix: []string{"mcf"}, warmup: 30_000, measure: 80_000},
	{name: "mix4-rwp", policy: "rwp", mix: []string{"mcf", "gcc", "dealII", "soplex"}, warmup: 30_000, measure: 80_000},
	{name: "mcf-rwp-warm0", policy: "rwp", mix: []string{"mcf"}, warmup: 0, measure: 110_000},
	{name: "mix2-rwp-warm0", policy: "rwp", mix: []string{"gcc", "lbm"}, warmup: 0, measure: 110_000},
}

// TestJournalPinned regenerates each pinned journal and requires the
// committed bytes.
func TestJournalPinned(t *testing.T) {
	for _, pj := range pinnedJournals {
		t.Run(pj.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := New(Config{Workers: 1, MetricsDir: dir, ProbeWindow: 20_000})
			if err != nil {
				t.Fatal(err)
			}
			opt := fastOptions(pj.policy)
			opt.Warmup, opt.Measure = pj.warmup, pj.measure
			var key Key
			if len(pj.mix) == 1 {
				if _, err := e.Single(pj.mix[0], opt).Wait(); err != nil {
					t.Fatal(err)
				}
				key, err = NewKey("single", pj.mix[0]+"/"+pj.policy, singlePayload{Bench: pj.mix[0], Options: opt})
			} else {
				opt.Hier = hier.MulticoreConfig(len(pj.mix))
				opt.Hier.LLCPolicy = pj.policy
				if _, err := e.Multi(pj.mix, opt).Wait(); err != nil {
					t.Fatal(err)
				}
				key, err = NewKey("multi", strings.Join(pj.mix, "+")+"/"+pj.policy, multiPayload{Benches: pj.mix, Options: opt})
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(JournalPath(dir, key))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "journal-"+pj.name+".jsonl")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s was missing; wrote it from this binary — review and rerun", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
						break
					}
				}
				t.Fatalf("journal differs from %s (%d vs %d lines)", path, len(gl), len(wl))
			}
		})
	}
}
