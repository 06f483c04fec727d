package sim

import (
	"reflect"
	"testing"

	"rwp/internal/hier"
	"rwp/internal/probe"
	"rwp/internal/workload"
)

// TestProbeBitIdentitySingle is the load-bearing observability test:
// attaching a Recorder must not change a single Result bit, for every
// studied policy family (plain stacks, partitioned, PC-indexed bypass,
// set dueling).
func TestProbeBitIdentitySingle(t *testing.T) {
	prof, err := workload.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"lru", "rwp", "rwpb", "rrp", "dip"} {
		t.Run(pol, func(t *testing.T) {
			opt := fastOptions(pol)
			bare, err := RunSingle(prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			rec := probe.NewRecorder(50_000)
			probed, err := RunSingleProbe(prof, opt, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, probed) {
				t.Fatalf("probe changed the result:\n bare %+v\nprobed %+v", bare, probed)
			}
			// Also: nil probe through the probe entry point is the bare run.
			nilRun, err := RunSingleProbe(prof, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, nilRun) {
				t.Fatal("nil probe changed the result")
			}
		})
	}
}

func TestProbeBitIdentityMulti(t *testing.T) {
	profs := make([]workload.Profile, 2)
	for i, n := range []string{"gcc", "lbm"} {
		p, err := workload.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		profs[i] = p
	}
	opt := fastOptions("rwp")
	opt.Hier = hier.MulticoreConfig(2)
	opt.Hier.LLCPolicy = "rwp"
	opt.Warmup = 20_000
	opt.Measure = 80_000
	bare, err := RunMulti(profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewRecorder(20_000)
	probed, err := RunMultiProbe(profs, opt, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, probed) {
		t.Fatalf("probe changed the multi result:\n bare %+v\nprobed %+v", bare, probed)
	}
	if len(rec.Intervals) == 0 {
		t.Fatal("recorder saw no intervals")
	}
}

// TestProbeRetargetsAndIntervals checks the events a probe receives
// over the measured region: RWP's retargets name legal way counts, and
// the interval series has one well-formed sample per window.
func TestProbeRetargetsAndIntervals(t *testing.T) {
	prof, err := workload.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOptions("rwp")
	rec := probe.NewRecorder(50_000)
	if _, err := RunSingleProbe(prof, opt, rec); err != nil {
		t.Fatal(err)
	}
	// RWP repartitions every 100k accesses; a 300k-access measured region
	// must produce retargets, and every target must be a legal way count.
	if len(rec.Retargets) == 0 {
		t.Fatal("no retarget events from rwp")
	}
	ways := opt.Hier.LLC.Ways
	for _, rt := range rec.Retargets {
		if rt.Target < 0 || rt.Target > ways {
			t.Fatalf("retarget target %d out of [0,%d]", rt.Target, ways)
		}
	}
	if len(rec.Intervals) != 6 {
		t.Fatalf("intervals = %d, want 6 (300k measured / 50k window)", len(rec.Intervals))
	}
	for i, iv := range rec.Intervals {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d", i, iv.Index)
		}
		if iv.ValidLines == 0 || iv.DirtyLines > iv.ValidLines {
			t.Fatalf("interval %d occupancy dirty %d valid %d", i, iv.DirtyLines, iv.ValidLines)
		}
		if iv.DirtyTarget < 0 || iv.DirtyTarget > ways {
			t.Fatalf("interval %d dirty target %d", i, iv.DirtyTarget)
		}
	}
}

// TestProbeWindowZeroDisablesIntervals: a zero window means no
// IntervalEnd events while the policy's events still arrive.
func TestProbeWindowZeroDisablesIntervals(t *testing.T) {
	prof, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rec := &probe.Recorder{} // zero value: Window() == 0
	if _, err := RunSingleProbe(prof, fastOptions("rwp"), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Intervals) != 0 {
		t.Fatalf("zero-window recorder got %d intervals", len(rec.Intervals))
	}
	if len(rec.Retargets) == 0 {
		t.Fatal("zero-window recorder received no retargets")
	}
}
