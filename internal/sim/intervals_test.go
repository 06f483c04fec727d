package sim

import (
	"testing"

	"rwp/internal/workload"
)

func TestRunSourceIntervalsSeries(t *testing.T) {
	prof, err := workload.Get("cactusADM")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOptions("rwp")
	res, series, err := RunSourceIntervals("cactusADM", prof.NewSource(), opt, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	want := int(opt.Measure / 50_000)
	if len(series) != want {
		t.Fatalf("%d intervals, want %d", len(series), want)
	}
	for i, iv := range series {
		if iv.EndAccess != uint64(i+1)*50_000 {
			t.Fatalf("interval %d ends at %d", i, iv.EndAccess)
		}
		if iv.IPC <= 0 {
			t.Fatalf("interval %d has IPC %v", i, iv.IPC)
		}
		if iv.DirtyTarget < 0 || iv.DirtyTarget > 16 {
			t.Fatalf("interval %d dirty target %d", i, iv.DirtyTarget)
		}
	}
	if res.IPC <= 0 {
		t.Fatal("overall result empty")
	}
}

func TestRunSourceIntervalsNonRWPTargetsAreMinusOne(t *testing.T) {
	prof, _ := workload.Get("gcc")
	opt := fastOptions("lru")
	_, series, err := RunSourceIntervals("gcc", prof.NewSource(), opt, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range series {
		if iv.DirtyTarget != -1 {
			t.Fatalf("LRU run reported dirty target %d", iv.DirtyTarget)
		}
	}
}

func TestRunSourceIntervalsValidation(t *testing.T) {
	prof, _ := workload.Get("gcc")
	opt := fastOptions("lru")
	if _, _, err := RunSourceIntervals("x", prof.NewSource(), opt, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	opt.Hier.Cores = 2
	if _, _, err := RunSourceIntervals("x", prof.NewSource(), opt, 1000); err == nil {
		t.Fatal("multicore hierarchy accepted")
	}
}

func TestIntervalsAggregateMatchesPlainRun(t *testing.T) {
	// The overall result of an interval run must equal the plain run.
	prof, _ := workload.Get("astar")
	opt := fastOptions("rwp")
	plain, err := RunSingle(prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	withIv, _, err := RunSourceIntervals("astar", prof.NewSource(), opt, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if plain.IPC != withIv.IPC || plain.ReadMPKI != withIv.ReadMPKI {
		t.Fatalf("interval run diverged: IPC %v vs %v", plain.IPC, withIv.IPC)
	}
}
