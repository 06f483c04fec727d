package loadgen

import (
	"bytes"
	"reflect"
	"testing"

	"rwp/internal/live"
	"rwp/internal/workload"
)

func TestNewUnknownProfile(t *testing.T) {
	if _, err := New("no-such-profile", 0, 0); err == nil {
		t.Fatal("New accepted an unknown profile")
	}
}

// TestSameSeedSameStream: the op stream is a pure function of
// (profile, seed).
func TestSameSeedSameStream(t *testing.T) {
	g1, err := New("mcf", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New("mcf", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		a, b := g1.Next(), g2.Next()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a, b)
		}
	}
	// A different seed must diverge somewhere early.
	g3, err := New("mcf", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	g1b, _ := New("mcf", 7, 0)
	same := true
	for i := 0; i < 2000; i++ {
		if !reflect.DeepEqual(g1b.Next(), g3.Next()) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical 2000-op prefixes")
	}
}

// TestOpMapping: the stream mirrors the profile's reference stream —
// loads become Gets, stores become Puts with a deterministic payload.
func TestOpMapping(t *testing.T) {
	prof, err := workload.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	src := prof.WithSeed(3).NewSource()
	g, err := New("mcf", 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	gets, puts := 0, 0
	for i := 0; i < 3000; i++ {
		a, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		op := g.Next()
		wantKey := Key(a.Addr.DefaultLine())
		if op.Key != wantKey {
			t.Fatalf("op %d: key %q, want %q", i, op.Key, wantKey)
		}
		if op.Put != a.Kind.IsWrite() {
			t.Fatalf("op %d: put=%v for kind %v", i, op.Put, a.Kind)
		}
		if op.Put {
			puts++
			if !bytes.Equal(op.Value, Value(op.Key, 16)) {
				t.Fatalf("op %d: value not Value(key)", i)
			}
		} else {
			gets++
			if op.Value != nil {
				t.Fatalf("op %d: Get carries a value", i)
			}
		}
	}
	if gets == 0 || puts == 0 {
		t.Fatalf("degenerate stream: %d gets, %d puts", gets, puts)
	}
}

func TestValueDeterministicAndSized(t *testing.T) {
	v1 := Value("k", 64)
	v2 := Value("k", 64)
	if !bytes.Equal(v1, v2) {
		t.Fatal("Value not deterministic")
	}
	if len(v1) != 64 {
		t.Fatalf("len %d, want 64", len(v1))
	}
	if bytes.Equal(Value("k", 64), Value("j", 64)) {
		t.Fatal("distinct keys share a value")
	}
	if got := len(Value("k", 13)); got != 13 {
		t.Fatalf("odd size: len %d, want 13", got)
	}
}

// TestLoaderMatchesPut: a Get backfill and a Put of the same key store
// identical bytes, at default and explicit sizes.
func TestLoaderMatchesPut(t *testing.T) {
	ld := Loader(0)
	if !bytes.Equal(ld("abc"), Value("abc", DefaultValueSize)) {
		t.Fatal("Loader(0) disagrees with Value at DefaultValueSize")
	}
	if !bytes.Equal(Loader(8)("abc"), Value("abc", 8)) {
		t.Fatal("Loader(8) disagrees with Value(·, 8)")
	}
}

func TestApplyAndRun(t *testing.T) {
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways = 64, 4
	cfg.Loader = Loader(0)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit := Apply(c, Op{Put: true, Key: "x", Value: []byte("v")}); hit {
		t.Error("Put reported a Get hit")
	}
	if hit := Apply(c, Op{Key: "x"}); !hit {
		t.Error("Get after Put missed")
	}
	g, err := New("astar", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	Run(c, g, 1000)
	s := c.Stats()
	if s.Gets+s.Puts != 1002 {
		t.Fatalf("ops = %d, want 1002", s.Gets+s.Puts)
	}
}
