package core

import (
	"reflect"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/mem"
)

// stateReader is a minimal StateReader for driving the policy directly.
type stateReader struct {
	sets, ways int
	valid      []bool
	dirty      []bool
}

func (r *stateReader) NumSets() int { return r.sets }
func (r *stateReader) Ways() int    { return r.ways }
func (r *stateReader) State(set, way int) cache.LineState {
	i := set*r.ways + way
	return cache.LineState{Valid: r.valid[i], Dirty: r.dirty[i]}
}
func (r *stateReader) ValidWays(set int) int {
	n := 0
	for w := 0; w < r.ways; w++ {
		if r.valid[set*r.ways+w] {
			n++
		}
	}
	return n
}
func (r *stateReader) DirtyWays(set int) int {
	n := 0
	for w := 0; w < r.ways; w++ {
		if r.dirty[set*r.ways+w] {
			n++
		}
	}
	return n
}
func (r *stateReader) InvalidWay(set int) int {
	for w := 0; w < r.ways; w++ {
		if !r.valid[set*r.ways+w] {
			return w
		}
	}
	return -1
}

func newStateReader(sets, ways int) *stateReader {
	return &stateReader{sets: sets, ways: ways, valid: make([]bool, sets*ways), dirty: make([]bool, sets*ways)}
}

// drive feeds n deterministic accesses through the policy, filling
// invalid ways as a real cache would.
func drive(p *RWP, r *stateReader, n int, seed uint64) {
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		set := int(x>>33) % r.sets
		line := mem.LineAddr(x >> 8)
		class := cache.DemandLoad
		if x&3 == 0 {
			class = cache.DemandStore
		}
		ai := cache.AccessInfo{Line: line, Class: class}
		// Hit an arbitrary valid way half the time, else fill.
		if x&4 == 0 && r.valid[set*r.ways] {
			p.OnHit(set, 0, ai)
			continue
		}
		way, _ := p.Victim(set, ai)
		i0 := set*r.ways + way
		if r.valid[i0] {
			p.OnEvict(set, way, ai)
		}
		r.valid[i0] = true
		r.dirty[i0] = class.IsWrite()
		p.OnFill(set, way, ai)
	}
}

func exportCfg() Config {
	return Config{SamplerSets: 2, Interval: 64, DecayShift: 1, InitialDirtyTarget: -1}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	r := newStateReader(8, 4)
	p := New(exportCfg())
	p.Attach(r)
	drive(p, r, 1000, 12345)

	st := p.ExportState()
	// Validate passes for a genuine export.
	if err := st.Validate(4, p.SamplerSetCount()); err != nil {
		t.Fatalf("Validate(export): %v", err)
	}

	// A fresh attached policy, restored, must export the identical state.
	q := New(exportCfg())
	q.Attach(newStateReader(8, 4))
	if err := q.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got := q.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored export differs:\ngot  %+v\nwant %+v", got, st)
	}

	// And the export is a deep copy: mutating it must not touch p.
	before := p.TargetDirty()
	st.CleanHist[0] += 100
	if again := p.ExportState(); p.TargetDirty() != before || again.CleanHist[0] == st.CleanHist[0] {
		t.Fatal("export aliases live state")
	}
}

func TestRestoredPolicyBehavesIdentically(t *testing.T) {
	// Two policies: one driven straight through, one exported/restored
	// midway. Identical tail behavior pins that State is complete.
	rA := newStateReader(8, 4)
	pA := New(exportCfg())
	pA.Attach(rA)
	drive(pA, rA, 700, 7)

	rB := newStateReader(8, 4)
	pB := New(exportCfg())
	pB.Attach(rB)
	drive(pB, rB, 700, 7)
	st := pB.ExportState()
	rC := newStateReader(8, 4)
	copy(rC.valid, rB.valid)
	copy(rC.dirty, rB.dirty)
	pC := New(exportCfg())
	pC.Attach(rC)
	// Rebuild recency + written bits the way the live cache does: replay
	// fills for resident lines (ascending is enough for this check since
	// both sides share it), then install the state.
	for s := 0; s < 8; s++ {
		for w := 0; w < 4; w++ {
			if rC.valid[s*4+w] {
				cl := cache.DemandLoad
				if rC.dirty[s*4+w] {
					cl = cache.DemandStore
				}
				pC.OnFill(s, w, cache.AccessInfo{Line: mem.LineAddr(s*4 + w), Class: cl})
			}
		}
	}
	if err := pC.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	drive(pA, rA, 700, 99)
	drive(pC, rC, 700, 99)
	if pA.TargetDirty() != pC.TargetDirty() || pA.Intervals() != pC.Intervals() {
		t.Fatalf("diverged: target %d/%d intervals %d/%d",
			pA.TargetDirty(), pC.TargetDirty(), pA.Intervals(), pC.Intervals())
	}
	ca, da := pA.Histograms()
	cc, dc := pC.Histograms()
	if !reflect.DeepEqual(ca, cc) || !reflect.DeepEqual(da, dc) {
		t.Fatal("histograms diverged after restore")
	}
	upA, downA, sameA := pA.RetargetDirs()
	upC, downC, sameC := pC.RetargetDirs()
	if upA != upC || downA != downC || sameA != sameC {
		t.Fatal("retarget direction counters diverged after restore")
	}
}

func TestRestoreStateRejects(t *testing.T) {
	r := newStateReader(8, 4)
	p := New(exportCfg())
	p.Attach(r)
	drive(p, r, 500, 3)
	good := p.ExportState()

	fresh := func() *RWP {
		q := New(exportCfg())
		q.Attach(newStateReader(8, 4))
		return q
	}
	cases := []struct {
		name string
		mut  func(st *State)
	}{
		{"target too big", func(st *State) { st.TargetDirty = 5 }},
		{"target negative", func(st *State) { st.TargetDirty = -1 }},
		{"short clean hist", func(st *State) { st.CleanHist = st.CleanHist[:3] }},
		{"long dirty hist", func(st *State) { st.DirtyHist = append(st.DirtyHist, 0) }},
		{"direction sum broken", func(st *State) { st.RetargetUp++ }},
		{"sampler count mismatch", func(st *State) { st.Samplers = st.Samplers[:1] }},
		{"sampler stack overflow", func(st *State) {
			ss := make([]SamplerEntry, 5)
			st.Samplers = append([]SamplerState(nil), st.Samplers...)
			st.Samplers[0].Clean = ss
		}},
	}
	for _, tc := range cases {
		st := good
		// Deep-enough copies so mutations don't leak between cases.
		st.CleanHist = append([]uint64(nil), good.CleanHist...)
		st.DirtyHist = append([]uint64(nil), good.DirtyHist...)
		st.Samplers = append([]SamplerState(nil), good.Samplers...)
		tc.mut(&st)
		q := fresh()
		if err := q.RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted a corrupt state", tc.name)
		}
		// Rejection must leave the policy untouched.
		if got := q.ExportState(); !reflect.DeepEqual(got, fresh().ExportState()) {
			t.Errorf("%s: rejected restore mutated the policy", tc.name)
		}
	}

	var unattached RWP
	if err := unattached.RestoreState(good); err == nil {
		t.Error("RestoreState before Attach accepted")
	}
}
