package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwp/internal/live/proto"
)

// tiny shrinks a run to two rounds of one small chunk, so the whole
// harness runs in a few seconds.
func tiny(o *runOpts) {
	o.rounds, o.setups, o.chunkOps = 2, 1, 8192
	o.spec.roundChunks, o.spec.warmChunks = 1, 1
	o.auditWarm, o.auditChunks = 1, 1
	o.simWarmup, o.simMeasure = 2_000, 8_000
	o.microBenchtime = "1ms"
}

func tinyRecord(t *testing.T, name string, seed uint64) *record {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	o := defaultOpts(spec, seed, 1, false)
	tiny(&o)
	rec, err := measure(o, false, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rec
}

func TestEveryWorkloadVerifiesAndExactColumnsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := tinyRecord(t, w.name, 1), tinyRecord(t, w.name, 1), tinyRecord(t, w.name, 2)
			for _, r := range []*record{a, b, c} {
				if !r.correct() || r.values["verified_ops_share"] < 1 {
					t.Fatalf("seed %d: verified_ops_share = %v, failed %d of %d, law %v", r.opts.seed, r.values["verified_ops_share"], r.failed(), r.leg.attempted, r.leg.lawErr)
				}
				if r.leg.attempted == 0 || len(r.leg.rounds) != 2 {
					t.Fatalf("attempted %d ops in %d rounds", r.leg.attempted, len(r.leg.rounds))
				}
			}
			differ := false
			for _, d := range endToEnd {
				if v := a.values[d.name]; v <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.name, v)
				}
				if !d.exact {
					continue
				}
				if !sameBits(a.values[d.name], b.values[d.name]) {
					t.Errorf("%s differs between two runs of seed 1: %v, %v", d.name, a.values[d.name], b.values[d.name])
				}
				if !sameBits(a.values[d.name], c.values[d.name]) {
					differ = true
				}
			}
			if !differ {
				t.Error("no exact metric moved with the seed: the seed does not reach the generators")
			}
		})
	}
}

func TestTracedRunCoversEverySeam(t *testing.T) {
	seams := map[string][]string{
		"direct_spill":  {"live.get_hit_ns", "live.get_fill_ns", "live.put_insert_ns", "backend.load_ns", "snap.bytes"},
		"tcp_pipe":      {"proto.client_queue_ns", "proto.client_flush_us", "proto.server_backend_share", "proto.bytes_in_per_op", "proto.writes_per_kop", "net.server_read_wait_share", "net.server_write_share", "proto.serve_get_ns"},
		"cluster_batch": {"cluster.call_us", "cluster.router_self_us", "cluster.node_flush_us", "cluster.node_imbalance", "proto.server_backend_share", "proto.serve_mget_ns_per_key", "cluster.ring_route_ns"},
		"sim_llc":       {"sim.job_ms_rwp", "sim.speedup_mcf", "cache.access_rwp_ns", "workload.next_ns"},
	}
	for name, want := range seams {
		t.Run(name, func(t *testing.T) {
			spec, _ := findWorkload(name)
			o := defaultOpts(spec, 1, 1, true)
			tiny(&o)
			dir := t.TempDir()
			rec, err := measure(o, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.correct() {
				t.Fatalf("failed %d of %d, law %v", rec.failed(), rec.leg.attempted, rec.leg.lawErr)
			}
			for _, m := range append(want, "trace.spans", "trace.overhead_ratio", "client.samples", "host.spin_ns_before", "host.ref_mem_ms", "host.ref_alu_ms") {
				if rec.values[m] <= 0 {
					t.Errorf("%s = %v, want a measurement", m, rec.values[m])
				}
			}
			for m := range rec.values {
				if !defined(perLayer, m) {
					t.Errorf("measured %q, which the per-layer table does not define", m)
				}
			}
			var doc struct {
				Schema string
				Actors []struct {
					Actor string
					Spans [][]any
				}
			}
			b, err := os.ReadFile(filepath.Join(dir, "trace_"+name+".json"))
			if err == nil {
				err = json.Unmarshal(b, &doc)
			}
			if err != nil || doc.Schema != traceSchema || len(doc.Actors) == 0 || len(doc.Actors[0].Spans) == 0 {
				t.Errorf("trace file: err %v, schema %q, %d actors", err, doc.Schema, len(doc.Actors))
			}
		})
	}
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// corruptBackend flips one byte of one Get reply.
type corruptBackend struct {
	proto.Backend
	gets int
}

func (c *corruptBackend) Get(key string) ([]byte, bool) {
	v, hit := c.Backend.Get(key)
	c.gets++
	if c.gets == 12_000 { // past the 8192-op warm pass: inside round one
		v = append([]byte(nil), v...)
		v[0] ^= 0xff
	}
	return v, hit
}

func TestCorruptReplyFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "tcp_pipe", "-trace", "0", "-out", t.TempDir()}, func(o *runOpts) {
		tiny(o)
		o.wrap = func(b proto.Backend) proto.Backend { return &corruptBackend{Backend: b} }
	}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 after a corrupted reply; stderr: %s", stderr.String())
	}
	res := lastLine(t, stdout.Bytes())
	if res.Correct || res.Failed != 1 || res.Metrics["verified_ops_share"].Value >= 1 {
		t.Errorf("correct=%v failed=%d verified_ops_share=%v, want false, 1, below 1", res.Correct, res.Failed, res.Metrics["verified_ops_share"].Value)
	}
}

func lastLine(t *testing.T, out []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

func TestDriverContract(t *testing.T) {
	for mode, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		dir := t.TempDir()
		if code := run([]string{"--workload", "direct_fit", "--seed", "3", "--seconds", "1", "--trace", mode, "-out", dir}, tiny, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode, code, stderr.String())
		}
		res := lastLine(t, stdout.Bytes())
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", mode, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", mode, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s: present %v, unit %q, want %q", mode, d.name, ok, m.Unit, d.unit)
			}
			if !strings.Contains(stdout.String(), "direct_fit "+d.name+" ") {
				t.Errorf("trace %s: no line for %s", mode, d.name)
			}
		}
		file := "record_direct_fit_end_to_end.json"
		if mode == "1" {
			file = "record_direct_fit_per_layer.json"
		}
		var doc struct {
			Schema string
			Header map[string]any
			Rounds map[string][]float64
		}
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err == nil {
			err = json.Unmarshal(b, &doc)
		}
		if err != nil || doc.Schema != recordSchema || fmt.Sprint(doc.Header["seed"]) != "3" || len(doc.Rounds["ops_per_s"]) == 0 {
			t.Errorf("trace %s: record: err %v, schema %q, header %v", mode, err, doc.Schema, doc.Header)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, tiny, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
