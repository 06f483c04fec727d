package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rwp/internal/probe"
	"rwp/internal/sim"
)

// journalRuns submits a small single+multi job set with journals enabled
// and returns every journal file's content, keyed by file name.
func journalRuns(t *testing.T, workers int, dir string) map[string][]byte {
	t.Helper()
	e, err := New(Config{Workers: workers, MetricsDir: dir, ProbeWindow: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	singles := []struct{ bench, policy string }{
		{"gcc", "lru"},
		{"astar", "rwp"},
		{"mcf", "rwpb"},
	}
	futs := make([]*Future[sim.Result], len(singles))
	for i, s := range singles {
		futs[i] = e.Single(s.bench, fastOptions(s.policy))
	}
	mopt := fastOptions("rwp")
	mopt.Hier.Cores = 2
	mfut := e.Multi([]string{"sphinx3", "gobmk"}, mopt)
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mfut.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DiskErrors != 0 {
		t.Fatalf("journal writes failed: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = b
	}
	return out
}

// TestJournalByteIdentityAcrossWorkers is the runner-level half of the
// observability guarantee: the same job set writes byte-identical
// journal files at -j 1 and -j 4 (content is a pure function of the job
// key, never of scheduling).
func TestJournalByteIdentityAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	serial := journalRuns(t, 1, t.TempDir())
	parallel := journalRuns(t, 4, t.TempDir())
	if len(serial) != 4 {
		t.Fatalf("%d journals, want 4 (3 single + 1 multi)", len(serial))
	}
	if len(parallel) != len(serial) {
		t.Fatalf("worker counts produced different journal sets: %d vs %d", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Fatalf("journal %s missing from parallel run", name)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("journal %s differs between -j 1 and -j 4", name)
		}
	}
}

// TestJournalContent decodes one written journal and pins it to the
// job's delivered result.
func TestJournalContent(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{Workers: 1, MetricsDir: dir, ProbeWindow: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOptions("rwp")
	res, err := e.Single("mcf", opt).Wait()
	if err != nil {
		t.Fatal(err)
	}
	key, err := NewKey("single", "mcf/rwp", singlePayload{Bench: "mcf", Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(JournalPath(dir, key))
	if err != nil {
		t.Fatalf("journal not at its content address: %v", err)
	}
	defer f.Close()
	j, err := probe.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	if j.Header.Kind != "single" || j.Header.Desc != "mcf/rwp" || j.Header.Window != 20_000 {
		t.Fatalf("header = %+v", j.Header)
	}
	if len(j.Results) != 1 {
		t.Fatalf("%d result records, want 1", len(j.Results))
	}
	// The result record is the delivered result, every field of it
	// bit for bit — the LLC counts rwpstat derives its events from
	// included.
	var r sim.Result
	if err := json.Unmarshal(j.Results[0], &r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, res) {
		t.Fatalf("journal result %+v, sim result %+v", r, res)
	}
	// The measured region is 80k accesses with a 20k window: the time
	// series must be fully populated.
	if len(j.Intervals) != 4 {
		t.Fatalf("%d intervals, want 4", len(j.Intervals))
	}
	if j.FinalTarget() < 0 {
		t.Fatal("rwp journal has no retarget history")
	}
}
