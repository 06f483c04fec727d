package live_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/snap"
)

// The documents under testdata/ were printed by a commit whose stats
// document still carried a probe section recorded event by event in
// per-shard probe.Recorders (and whose cost histograms were three
// observed ledgers), by
//
//	rwpserve -selftest 20000 -sets 256 -ways 8 -profile P [flags] -probe
//
// with the one `"Bypasses": 0,` line under "stats" removed (that
// counter is gone). They are the recorded-counter oracle and stay
// byte-unchanged: recordedDocument checks that every recorded probe
// number is a derivation of the stats section, then rewrites the
// golden into today's document.
var oracleRuns = []struct {
	file    string
	profile string
	cfg     func(*live.Config)
	// restartExact: the run is bit-reproducible through a snapshot /
	// restore at op 12000. Not so with NegOps: the negative cache is
	// deliberately not snapshotted (DESIGN.md §16), so a restored run
	// re-asks the backend for a few keys.
	restartExact bool
	// snapSHA256 pins snap.Encode of the cache at the end of the run:
	// every resident key, value, dirty bit and recency position, every
	// predictor and every ledger, byte for byte.
	snapSHA256 string
}{
	{"selftest_mcf_lru.json", "mcf", func(c *live.Config) { c.Policy = "lru" }, true,
		"cc1f5232c0810378e76f0d63462ed8ee8e9f6c981df92f41ab74d381ca9f0bf5"},
	{"selftest_mcf_rwp.json", "mcf", func(*live.Config) {}, true,
		"98b32112ca197f6a028b49213902e4b0f5104157b880c5ce6d2ca3818e0b398a"},
	{"selftest_advscan_neg.json", loadgen.AdvScan, func(c *live.Config) { c.Coalesce, c.NegOps = true, 64 }, false,
		"4370ceb788ff8f625c984eee41b68439a96085b6e4d136f17e02fdf4487dfced"},
}

// classCounters is one request class's counts in a golden's probe
// section.
type classCounters struct {
	Accesses, Hits, Misses, HitsClean, HitsDirty, Fills, FillsDirty, Bypasses uint64
}

// recordedDoc is a golden's shape: the stats document without the four
// partition hit splits, plus the recorders' probe section.
type recordedDoc struct {
	live.StatsPayload
	Probe struct {
		Load       classCounters `json:"load"`
		Store      classCounters `json:"store"`
		EvictClean uint64        `json:"evictClean"`
		EvictDirty uint64        `json:"evictDirty"`
	} `json:"probe"`
}

// recordedDocument decodes one golden, fails on every probe number that
// is not its derivation from the stats section, and returns the golden
// as today's document: the recorded HitsClean/HitsDirty pairs moved into
// the four stats fields, the probe section dropped.
func recordedDocument(t *testing.T, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var d recordedDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	s, load, store := &d.Stats, d.Probe.Load, d.Probe.Store
	for _, c := range []struct {
		derivation string
		recorded   uint64
		derived    uint64
	}{
		{"load.Accesses = Gets", load.Accesses, s.Gets},
		{"load.Hits = GetHits", load.Hits, s.GetHits},
		{"load.Misses = GetMisses", load.Misses, s.GetMisses},
		{"load.Fills = Loads", load.Fills, s.Loads},
		{"load.FillsDirty = 0", load.FillsDirty, 0},
		{"load.Bypasses = 0", load.Bypasses, 0},
		{"store.Accesses = Puts", store.Accesses, s.Puts},
		{"store.Hits = PutHits", store.Hits, s.PutHits},
		{"store.Misses = PutInserts", store.Misses, s.PutInserts},
		{"store.Fills = Fills - Loads", store.Fills, s.Fills - s.Loads},
		{"store.FillsDirty = FillsDirty", store.FillsDirty, s.FillsDirty},
		{"store.Bypasses = 0", store.Bypasses, 0},
		{"evictClean = Evictions - DirtyEvictions", d.Probe.EvictClean, s.Evictions - s.DirtyEvictions},
		{"evictDirty = DirtyEvictions", d.Probe.EvictDirty, s.DirtyEvictions},
	} {
		if c.recorded != c.derived {
			t.Errorf("%s: %s does not hold: recorded %d, derived %d", file, c.derivation, c.recorded, c.derived)
		}
	}
	s.GetHitsClean, s.GetHitsDirty = load.HitsClean, load.HitsDirty
	s.PutHitsClean, s.PutHitsDirty = store.HitsClean, store.HitsDirty
	doc, err := d.StatsPayload.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestDerivedEqualsRecorded(t *testing.T) {
	const total, cut = 20_000, 12_000
	for _, run := range oracleRuns {
		want := recordedDocument(t, run.file)
		newCache := func() *live.Cache {
			cfg := live.DefaultConfig()
			cfg.Sets, cfg.Ways = 256, 8
			cfg.Loader = loadgen.AbsentLoader(0)
			run.cfg(&cfg)
			c, err := live.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		stream := func(skip int) loadgen.Stream {
			s, err := loadgen.NewStream(run.profile, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < skip; i++ {
				s.Next()
			}
			return s
		}
		c := newCache()
		loadgen.Run(c, stream(0), total)
		if got := statsJSON(t, c); !bytes.Equal(got, want) {
			t.Errorf("%s: document differs from the recorded one\ngot  %s\nwant %s", run.file, got, want)
		}
		checkSnapPin(t, run.file, "uninterrupted", c, run.snapSHA256)
		if !run.restartExact {
			continue
		}
		warm := newCache()
		loadgen.Run(warm, stream(0), cut)
		s, err := snap.Decode(snap.Encode(warm.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		c = newCache()
		if err := c.RestoreSnapshot(s); err != nil {
			t.Fatal(err)
		}
		loadgen.Run(c, stream(cut), total-cut)
		if got := statsJSON(t, c); !bytes.Equal(got, want) {
			t.Errorf("%s through a restore at op %d: document differs from the recorded one\ngot  %s\nwant %s", run.file, cut, got, want)
		}
		checkSnapPin(t, run.file, fmt.Sprintf("through a restore at op %d", cut), c, run.snapSHA256)
	}
}

// checkSnapPin fails unless the SHA-256 of c's encoded snapshot is pin.
func checkSnapPin(t *testing.T, file, when string, c *live.Cache, pin string) {
	t.Helper()
	sum := sha256.Sum256(snap.Encode(c.Snapshot()))
	if got := hex.EncodeToString(sum[:]); got != pin {
		t.Errorf("%s %s: snapshot SHA-256 %s, pinned %s", file, when, got, pin)
	}
}

// TestSnapshotSizeIndependentOfUptime: a set's snapshot record holds
// its residents, counters and predictor state, nothing that grows with
// the number of retargets. Two caches reach the same resident state —
// every set full of the same keys — one after 64x the operations and
// retargets of the other; their snapshots differ only in counter and
// histogram varint widths.
func TestSnapshotSizeIndependentOfUptime(t *testing.T) {
	run := func(rounds int) (*live.Cache, int) {
		cfg := snapTestConfig()
		cfg.Sets, cfg.Ways = 16, 4
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < 16*4*4; i++ {
				c.Put(loadgen.BgKey(i), []byte("value"))
				c.Get(loadgen.BgKey(i))
			}
		}
		return c, len(snap.Encode(c.Snapshot()))
	}
	young, youngBytes := run(2)
	old, oldBytes := run(128)
	ys, olds := young.Stats(), old.Stats()
	if ys.Entries != olds.Entries || olds.Retargets < 32*ys.Retargets || ys.Retargets == 0 {
		t.Fatalf("runs not comparable: entries %d/%d, retargets %d/%d", ys.Entries, olds.Entries, ys.Retargets, olds.Retargets)
	}
	// 21 counters, ten cost cells and the predictor's own counters can
	// each widen by a byte or two per set; a per-retarget record would
	// add a byte per retarget (thousands).
	if slack := 16 * 64; oldBytes > youngBytes+slack {
		t.Errorf("snapshot grew from %d to %d bytes over %d more retargets; want uptime-independent (+%d slack for varint widths)",
			youngBytes, oldBytes, olds.Retargets-ys.Retargets, slack)
	}
}

// TestSnapshotSmallerThanV3: one predictor record per eight sets, not
// per set, and cost cells in the ledger vector instead of two
// histograms. The same warm cache — default geometry, 200 000 mcf ops,
// every way resident — encoded to 1 590 955 bytes under rwp-snap-v3.
func TestSnapshotSmallerThanV3(t *testing.T) {
	const v3Bytes = 1_590_955
	cfg := live.DefaultConfig()
	cfg.Loader = loadgen.AbsentLoader(0)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadgen.NewStream("mcf", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Run(c, s, 200_000)
	if st := c.Stats(); st.Entries != c.Capacity() || st.Retargets == 0 {
		t.Fatalf("cache is not warm: %d of %d entries, %d retargets", st.Entries, c.Capacity(), st.Retargets)
	}
	if got := len(snap.Encode(c.Snapshot())); got >= v3Bytes {
		t.Errorf("warm snapshot is %d bytes, want fewer than the %d of rwp-snap-v3", got, v3Bytes)
	} else {
		t.Logf("warm snapshot: %d bytes (rwp-snap-v3: %d)", got, v3Bytes)
	}
}
