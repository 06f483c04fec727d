package live

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"rwp/internal/probe"
)

// sinkProbe collects request events in arrival order (test double for
// probe.ReqLogWriter). Values are copied: the capture contract says
// sinks must not retain the caller's slice.
type sinkProbe struct {
	evs []probe.ReqEvent
}

func (s *sinkProbe) ReqEvent(ev probe.ReqEvent) {
	ev.Value = append([]byte(nil), ev.Value...)
	s.evs = append(s.evs, ev)
}

// TestCostConservation: every completed Get and Put observes exactly
// one cost, so the histogram's N equals the op count.
func TestCostConservation(t *testing.T) {
	c := mustNew(t, rangeTestConfig())
	fillRangeTest(c, 20000)
	s := c.Stats()
	if got, want := s.CostHist.N(), s.Gets+s.Puts; got != want {
		t.Fatalf("hist N %d != gets+puts %d", got, want)
	}
	if s.CostHist.N() == 0 {
		t.Fatal("stream observed no costs")
	}
}

// TestRetargetDirectionSplit: the direction counters partition the
// retarget count, and survive range partitioning like every other
// field.
func TestRetargetDirectionSplit(t *testing.T) {
	c := mustNew(t, rangeTestConfig())
	fillRangeTest(c, 40000)
	s := c.Stats()
	if s.Retargets == 0 {
		t.Fatal("stream triggered no retargets")
	}
	if s.RetargetUp+s.RetargetDown+s.RetargetSame != s.Retargets {
		t.Fatalf("up %d + down %d + same %d != retargets %d",
			s.RetargetUp, s.RetargetDown, s.RetargetSame, s.Retargets)
	}
	var sum Stats
	for lo := 0; lo < 64; lo += 16 {
		sum.Add(c.StatsRange(lo, lo+16))
	}
	if sum.RetargetUp != s.RetargetUp || sum.RetargetDown != s.RetargetDown ||
		sum.RetargetSame != s.RetargetSame {
		t.Fatalf("range partition changed direction counters: %+v vs %+v",
			sum, s)
	}
	if !reflect.DeepEqual(sum.CostHist.Buckets, s.CostHist.Buckets) {
		t.Fatal("range partition changed the cost histogram")
	}
}

// TestResetStatsClearsCosts: ResetStats starts a fresh measurement
// region — op counters and cost observations go to zero together.
func TestResetStatsClearsCosts(t *testing.T) {
	c := mustNew(t, rangeTestConfig())
	fillRangeTest(c, 5000)
	c.ResetStats()
	s := c.Stats()
	if s.CostHist.N() != 0 {
		t.Fatalf("cost histogram survived ResetStats: N=%d", s.CostHist.N())
	}
	fillRangeTest(c, 1000)
	s = c.Stats()
	if s.CostHist.N() != s.Gets+s.Puts {
		t.Fatalf("post-reset conservation broken: N %d, ops %d", s.CostHist.N(), s.Gets+s.Puts)
	}
}

// TestReqLogCapture pins the capture hooks end to end: one event per
// op in stream order, outcomes matching the API results, Put values
// recorded, and — crucial for the replay equivalence proof — capture
// does not perturb the stats document.
func TestReqLogCapture(t *testing.T) {
	stream := func(c *Cache) {
		for i := 0; i < 3000; i++ {
			key := "k" + strconv.Itoa(i%70)
			if i%3 == 0 {
				c.Put(key, []byte("v"+strconv.Itoa(i)))
			} else {
				c.Get(key)
			}
		}
	}

	cfg := rangeTestConfig()
	sink := &sinkProbe{}
	cfg.ReqLog = sink
	c := mustNew(t, cfg)
	stream(c)
	statsWith, err := c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Same stream, no sink: the stats bytes must be identical (capture
	// is observe-only).
	c = mustNew(t, rangeTestConfig())
	stream(c)
	statsWithout, err := c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(statsWith, statsWithout) {
		t.Fatal("attaching a ReqLog sink changed the stats document")
	}

	evs := sink.evs
	if len(evs) != 3000 {
		t.Fatalf("captured %d events for 3000 ops", len(evs))
	}
	// Replaying the captured stream into a fresh cache reproduces the
	// original stats — the recorder→replayer contract at the API level.
	c2 := mustNew(t, rangeTestConfig())
	for _, ev := range evs {
		if ev.Put {
			c2.Put(ev.Key, ev.Value)
		} else {
			c2.Get(ev.Key)
		}
	}
	js2, err := c2.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js2, statsWith) {
		t.Fatal("replaying the captured stream produced different stats bytes")
	}
	// Spot-check event shape: sets in range, outcomes legal, costs
	// positive, Put events carry values.
	for i, ev := range evs {
		if ev.Set < 0 || ev.Set >= 64 {
			t.Fatalf("event %d: set %d out of range", i, ev.Set)
		}
		if ev.Cost <= 0 {
			t.Fatalf("event %d: cost %d", i, ev.Cost)
		}
		switch ev.Outcome {
		case probe.OutcomeHit, probe.OutcomeMiss, probe.OutcomeFill:
			if ev.Put {
				t.Fatalf("event %d: put with get outcome %q", i, ev.Outcome)
			}
		case probe.OutcomeInsert, probe.OutcomeOverwrite:
			if !ev.Put || ev.Value == nil {
				t.Fatalf("event %d: bad put event %+v", i, ev)
			}
		default:
			t.Fatalf("event %d: unknown outcome %q", i, ev.Outcome)
		}
	}
}

// TestReqLogCaptureWithLoader: loader fills are captured as "fill"
// with the miss cost, and the capture happens after the fill resolves.
func TestReqLogCaptureWithLoader(t *testing.T) {
	cfg := tinyConfig("rwp")
	cfg.Loader = func(key string) []byte { return []byte("loaded:" + key) }
	sink := &sinkProbe{}
	cfg.ReqLog = sink
	c := mustNew(t, cfg)
	c.Get("a")
	c.Get("a")
	if len(sink.evs) != 2 {
		t.Fatalf("%d events", len(sink.evs))
	}
	if sink.evs[0].Outcome != probe.OutcomeFill || sink.evs[0].Cost < CostMiss {
		t.Fatalf("loader miss event %+v", sink.evs[0])
	}
	if sink.evs[1].Outcome != probe.OutcomeHit || sink.evs[1].Cost != CostHit {
		t.Fatalf("hit event %+v", sink.evs[1])
	}
}
