package core

import (
	"fmt"

	"rwp/internal/mem"
	"rwp/internal/recency"
)

// State is a deep copy of an RWP instance's predictor and partition
// state — everything the policy carries besides the recency table and
// the per-line written bits, which a restorer reconstructs by
// replaying OnFill per resident line (the written bit is a pure
// function of each line's fill/hit access classes, and the live cache
// keeps it equal to the entry's dirty bit). Exporting plain exported
// fields keeps the snapshot codec (internal/snap) free of any
// dependency on core's private layout.
type State struct {
	// TargetDirty is the current dirty-partition target in ways.
	TargetDirty int
	// Accesses is the interval clock (observe() calls so far).
	Accesses uint64
	// Intervals counts completed repartitionings; the three Retarget*
	// counters always sum to it. The per-interval target trajectory is
	// deliberately not state (it would grow with uptime): it is the
	// Retarget probe event stream, kept by whoever attaches a probe.
	Intervals    uint64
	RetargetUp   uint64
	RetargetDown uint64
	RetargetSame uint64
	// CleanHist and DirtyHist are the decayed read-hit stack-distance
	// histograms, one bucket per way.
	CleanHist []uint64
	DirtyHist []uint64
	// Samplers holds the shadow-stack state of every shadowed set, in
	// ascending set order.
	Samplers []SamplerState
}

// SamplerState is one shadowed set's pair of shadow LRU stacks.
type SamplerState struct {
	Clean []SamplerEntry
	Dirty []SamplerEntry
}

// SamplerEntry is one tracked line, MRU first within its stack.
type SamplerEntry struct {
	Line      uint64
	Rewritten bool
}

// Validate checks a State against a geometry before any of it is
// installed, so a restore either applies completely or not at all.
// ways is the set associativity; samplers is the expected shadowed-set
// count (RWP.SamplerSetCount on the target instance).
func (st *State) Validate(ways, samplers int) error {
	if st.TargetDirty < 0 || st.TargetDirty > ways {
		return fmt.Errorf("rwp: state target %d outside [0,%d]", st.TargetDirty, ways)
	}
	if len(st.CleanHist) != ways || len(st.DirtyHist) != ways {
		return fmt.Errorf("rwp: state histogram lengths %d/%d, want %d", len(st.CleanHist), len(st.DirtyHist), ways)
	}
	if st.RetargetUp+st.RetargetDown+st.RetargetSame != st.Intervals {
		return fmt.Errorf("rwp: state retarget directions sum %d, want %d intervals",
			st.RetargetUp+st.RetargetDown+st.RetargetSame, st.Intervals)
	}
	if len(st.Samplers) != samplers {
		return fmt.Errorf("rwp: state has %d samplers, want %d", len(st.Samplers), samplers)
	}
	for i := range st.Samplers {
		if n := len(st.Samplers[i].Clean); n > ways {
			return fmt.Errorf("rwp: state sampler %d clean stack %d exceeds %d ways", i, n, ways)
		}
		if n := len(st.Samplers[i].Dirty); n > ways {
			return fmt.Errorf("rwp: state sampler %d dirty stack %d exceeds %d ways", i, n, ways)
		}
	}
	return nil
}

// ExportState deep-copies the policy's predictor and partition state.
// The policy must be attached.
func (p *RWP) ExportState() State {
	st := State{
		TargetDirty:  p.targetDirty,
		Accesses:     p.accesses,
		Intervals:    p.intervals,
		RetargetUp:   p.retargetUp,
		RetargetDown: p.retargetDown,
		RetargetSame: p.retargetSame,
		CleanHist:    append([]uint64(nil), p.cleanHist...),
		DirtyHist:    append([]uint64(nil), p.dirtyHist...),
	}
	for s := range p.samplers {
		if sh := p.samplers[s]; sh != nil {
			st.Samplers = append(st.Samplers, SamplerState{
				Clean: exportStack(&sh.clean),
				Dirty: exportStack(&sh.dirty),
			})
		}
	}
	return st
}

// RestoreState installs a deep copy of st into an attached policy.
// Validation runs before any mutation, so a rejected state leaves the
// policy untouched. The recency table and written bits are not part of
// State: the caller replays OnFill for every resident line first (or
// after — RestoreState does not read them).
func (p *RWP) RestoreState(st State) error {
	if p.r == nil {
		return fmt.Errorf("rwp: RestoreState before Attach")
	}
	if err := st.Validate(p.r.Ways(), p.samplerCount); err != nil {
		return err
	}
	p.targetDirty = st.TargetDirty
	p.accesses = st.Accesses
	p.intervals = st.Intervals
	p.retargetUp = st.RetargetUp
	p.retargetDown = st.RetargetDown
	p.retargetSame = st.RetargetSame
	copy(p.cleanHist, st.CleanHist)
	copy(p.dirtyHist, st.DirtyHist)
	i := 0
	for s := range p.samplers {
		if sh := p.samplers[s]; sh != nil {
			restoreStack(&sh.clean, st.Samplers[i].Clean)
			restoreStack(&sh.dirty, st.Samplers[i].Dirty)
			i++
		}
	}
	return nil
}

func exportStack(st *shadowStack) []SamplerEntry {
	if len(st.entries) == 0 {
		return nil
	}
	out := make([]SamplerEntry, len(st.entries))
	for i, e := range st.entries {
		out[i] = SamplerEntry{Line: uint64(e.line), Rewritten: e.rewritten}
	}
	return out
}

func restoreStack(st *shadowStack, entries []SamplerEntry) {
	st.entries = st.entries[:0]
	for _, e := range entries {
		st.entries = append(st.entries, shadowEntry{line: mem.LineAddr(e.Line), rewritten: e.Rewritten})
	}
}

// Recency exposes the recency table for snapshot iteration and tests,
// mirroring policy.LRU's accessor.
func (p *RWP) Recency() *recency.Table { return p.tab }
