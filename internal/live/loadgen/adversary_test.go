package loadgen

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// advProfiles are the adversarial stream names under test.
var advProfiles = []string{AdvZipf, AdvFlash, AdvScan, AdvWrite}

func mustStream(t *testing.T, profile string, seed uint64) Stream {
	t.Helper()
	s, err := NewStream(profile, seed, 8)
	if err != nil {
		t.Fatalf("NewStream(%q, %d): %v", profile, seed, err)
	}
	return s
}

// opSig compresses an op to a comparable signature ("G key" / "P key");
// Put values are checked separately against Value.
func opSig(op Op) string {
	if op.Put {
		return "P " + op.Key
	}
	return "G " + op.Key
}

// TestAdversaryGolden pins the head of every adversarial stream at two
// seeds: the streams are a pure function of (profile, seed), and these
// exact sequences are part of the contract — a generator change that
// moves them is a behavior change, not a refactor.
func TestAdversaryGolden(t *testing.T) {
	golden := []struct {
		prof string
		seed uint64
		want []string
	}{
		{AdvFlash, 0, []string{"G bg:431", "G bg:335", "G bg:155", "G bg:225", "G bg:195", "G bg:265"}},
		{AdvFlash, 1, []string{"G bg:193", "G bg:350", "G bg:441", "G bg:165", "G bg:424", "G bg:353"}},
		{AdvScan, 0, []string{"G absent:0", "G absent:1", "G absent:2", "G absent:3", "G absent:4", "G absent:5"}},
		{AdvScan, 1, []string{"G absent:2481", "G absent:2482", "G absent:2483", "G absent:2484", "G absent:2485", "G absent:2486"}},
		{AdvWrite, 0, []string{"P wr:431", "G wr:335", "P wr:155", "P wr:737", "G wr:707", "P wr:265"}},
		{AdvWrite, 1, []string{"P wr:193", "P wr:350", "P wr:441", "P wr:165", "P wr:424", "P wr:865"}},
		{AdvZipf, 0, []string{"P hot:1", "G cold:1179", "G hot:7", "G cold:3337", "G hot:3", "G hot:2"}},
		{AdvZipf, 1, []string{"G hot:6", "G hot:2", "G hot:2", "G hot:1", "G hot:2", "G hot:4"}},
	}
	for _, tc := range golden {
		ops := Take(mustStream(t, tc.prof, tc.seed), len(tc.want))
		var got []string
		for _, op := range ops {
			got = append(got, opSig(op))
			if op.Put && !bytes.Equal(op.Value, Value(op.Key, 8)) {
				t.Errorf("%s seed %d: Put %q value is not Value(key)", tc.prof, tc.seed, op.Key)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s seed %d:\n got %v\nwant %v", tc.prof, tc.seed, got, tc.want)
		}
	}
}

// TestAdversarySeedSensitivity: seeds must matter for every profile
// (otherwise the pure-function property is vacuous).
func TestAdversarySeedSensitivity(t *testing.T) {
	for _, prof := range advProfiles {
		a := Take(mustStream(t, prof, 0), 200)
		b := Take(mustStream(t, prof, 1), 200)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 0 and 1 generate identical streams", prof)
		}
	}
}

// TestAdversaryTakeEqualsNext: Take is exactly n Next calls, and two
// independently built streams with one seed are the same stream — the
// batch/stream equivalence contract extended to every new profile.
func TestAdversaryTakeEqualsNext(t *testing.T) {
	const n = 600
	for _, prof := range advProfiles {
		batched := Take(mustStream(t, prof, 7), n)
		byOne := mustStream(t, prof, 7)
		for i, want := range batched {
			if got := byOne.Next(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: op %d: Take %+v != Next %+v", prof, i, want, got)
			}
		}
	}
}

// TestAdversaryRunsConcat: splitting any adversarial stream into
// same-kind runs and concatenating them reproduces the stream — the
// property that lets the batching transports (MGET/MPUT frames) carry
// these profiles unchanged.
func TestAdversaryRunsConcat(t *testing.T) {
	for _, prof := range advProfiles {
		ops := Take(mustStream(t, prof, 11), 500)
		var cat []Op
		for _, run := range Runs(ops, 64) {
			for j := 1; j < len(run); j++ {
				if run[j].Put != run[0].Put {
					t.Fatalf("%s: mixed-kind run", prof)
				}
			}
			cat = append(cat, run...)
		}
		if !reflect.DeepEqual(cat, ops) {
			t.Errorf("%s: concatenated runs differ from the stream", prof)
		}
	}
}

// TestFlashConvergenceIndex pins the flash crowd exactly: for every
// seed, ops FlashPeriod*e+FlashPeriod-FlashBurst .. FlashPeriod*e+
// FlashPeriod-1 are Gets of FlashKey(e), and their neighbors are not.
// The burst indices are seed-independent by construction — that is
// what makes independently seeded clients a crowd.
func TestFlashConvergenceIndex(t *testing.T) {
	for _, seed := range []uint64{0, 3, 99} {
		ops := Take(mustStream(t, AdvFlash, seed), 2*FlashPeriod)
		for e := uint64(0); e < 2; e++ {
			lo := int(e)*FlashPeriod + FlashPeriod - FlashBurst
			for i := lo; i < lo+FlashBurst; i++ {
				if op := ops[i]; op.Put || op.Key != FlashKey(e) {
					t.Fatalf("seed %d op %d = %+v, want Get %s", seed, i, op, FlashKey(e))
				}
			}
			if ops[lo-1].Key == FlashKey(e) {
				t.Fatalf("seed %d op %d converged early", seed, lo-1)
			}
		}
		if int(FlashPeriod)*2 != len(ops) {
			t.Fatal("short take")
		}
	}
}

// TestScanCycleAndPhase: adv:scan sweeps the whole absent keyspace
// cyclically (op i and op i+scanKeys name the same key), every key is
// absent-prefixed, and the seed only rotates the phase.
func TestScanCycleAndPhase(t *testing.T) {
	ops := Take(mustStream(t, AdvScan, 5), scanKeys+10)
	for i := 0; i < 10; i++ {
		if ops[i].Key != ops[scanKeys+i].Key {
			t.Fatalf("op %d and op %d differ: scan is not a %d-cycle", i, scanKeys+i, scanKeys)
		}
	}
	seen := map[string]bool{}
	for _, op := range ops[:scanKeys] {
		if op.Put || !strings.HasPrefix(op.Key, AbsentPrefix) {
			t.Fatalf("scan emitted %+v, want absent-keyspace Gets only", op)
		}
		seen[op.Key] = true
	}
	if len(seen) != scanKeys {
		t.Fatalf("one cycle visited %d distinct keys, want %d", len(seen), scanKeys)
	}
}

// TestWriteStormShape: adv:write is overwhelmingly Puts on the wr:
// keyspace.
func TestWriteStormShape(t *testing.T) {
	ops := Take(mustStream(t, AdvWrite, 0), 2000)
	puts := 0
	for _, op := range ops {
		if !strings.HasPrefix(op.Key, "wr:") {
			t.Fatalf("write storm touched %q", op.Key)
		}
		if op.Put {
			puts++
		}
	}
	if puts < 1800 {
		t.Fatalf("write storm made only %d/2000 Puts", puts)
	}
}

// TestAbsentLoader: absent-prefixed keys are reported missing, all
// others serve the same bytes as the plain Loader — drop-in for every
// stream that stays out of the absent namespace.
func TestAbsentLoader(t *testing.T) {
	al, l := AbsentLoader(16), Loader(16)
	if v := al(AbsentKey(7)); v != nil {
		t.Fatalf("AbsentLoader(%q) = %q, want nil", AbsentKey(7), v)
	}
	for _, key := range []string{"bg:1", "hot:0", "deadbeef"} {
		if !bytes.Equal(al(key), l(key)) {
			t.Fatalf("AbsentLoader(%q) differs from Loader", key)
		}
	}
}

// TestNewStreamDispatch: adv:* names resolve here, unknown adv names
// fail, and non-adv names still go through the workload registry.
func TestNewStreamDispatch(t *testing.T) {
	if _, err := NewStream("adv:nope", 0, 0); err == nil {
		t.Error("unknown adversarial profile accepted")
	}
	if _, err := NewStream("no-such-workload", 0, 0); err == nil {
		t.Error("unknown workload profile accepted")
	}
	if s, err := NewStream("mcf", 0, 0); err != nil || s == nil {
		t.Errorf("workload profile rejected: %v", err)
	}
}
