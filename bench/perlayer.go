package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rwp/internal/live"
)

// A traced run: per-layer metrics only. It measures an untraced leg
// and a traced leg of traceRounds rounds each (their ratio is the
// tracing overhead), reads the system out, and runs the micro-rows of
// the layers the workload exercises. End-to-end metrics never come
// from here.

// tracedRun returns the untraced leg (for the record and the verdict)
// and the per-layer values measured; metrics the workload does not
// exercise are absent and print as 0.
func tracedRun(o runOpts, ref *hostRef, outDir string) (*leg, map[string]float64, error) {
	out := map[string]float64{}
	m := micro{benchtime: o.microBenchtime, ref: ref, out: out}
	var u *leg
	var err error
	if o.spec.kind == kindSim {
		if u, err = simTraced(o, ref, outDir, out); err != nil {
			return nil, nil, err
		}
		if err := m.sim(); err != nil {
			return nil, nil, err
		}
	} else {
		if u, err = liveTraced(o, ref, outDir, out); err != nil {
			return nil, nil, err
		}
		if err := m.live(); err != nil {
			return nil, nil, err
		}
		switch o.spec.kind {
		case kindTCP:
			err = m.proto(false)
		case kindCluster:
			if err = m.proto(true); err == nil {
				err = m.cluster()
			}
		}
		if err != nil {
			return nil, nil, err
		}
		out["loadgen.next_ns"] = u.genNs
		out["loadgen.allocs_per_op"] = u.genAllocs
	}
	timed := u.timed()
	out["runtime.gc_cycles"] = float64(timed.gcCycles)
	out["runtime.gc_pause_ms"] = ms(timed.gcPause)
	if cpu := timed.cpu.Seconds(); cpu > 0 {
		out["runtime.gc_cpu_share"] = timed.gcCPU / cpu
	}
	out["client.p99_us"] = u.overRounds(func(r roundRec) float64 { return r.p99 })
	for _, r := range u.rounds {
		out["client.max_us"] = max(out["client.max_us"], r.max)
		out["client.samples"] += float64(r.samples)
	}
	out["client.round_iqr_share"] = iqrShare(u.perRound(roundRec.rate))
	out["client.raw_ops_per_s"] = u.overRounds(roundRec.rawRate)
	out["host.ref_mem_ms"] = u.ref().memMean()
	out["host.ref_alu_ms"] = u.ref().aluMean()
	out["client.rwp_lru_read_hit_ratio"] = u.audit.hitRatio
	out["host.spin_ns_before"] = u.spinBefore
	out["host.spin_ns_after"] = u.spinAfter
	return u, out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mean is total over n, 0 for no n.
func mean(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// liveTraced steps an untraced and a traced system through their rounds
// alternately, so that the host's drift falls on both and their ratio
// is the tracing overhead.
func liveTraced(o runOpts, ref *hostRef, outDir string, out map[string]float64) (*leg, error) {
	ts := newTraceSet(o.spec.kind.servers())
	ur, err := startLive(o, ref, nil, true)
	if err != nil {
		return nil, err
	}
	defer ur.sys.close()
	tr, err := startLive(o, ref, ts, false)
	if err != nil {
		return nil, err
	}
	defer tr.sys.close()
	for i := 0; i < o.rounds; i++ {
		if err := ur.round(); err != nil {
			return nil, err
		}
		if err := tr.round(); err != nil {
			return nil, err
		}
	}
	u, t, tsys := ur.finish(), tr.finish(), tr.sys
	if u.audit, err = audit(o); err == nil {
		err = readOut(ur.sys, u, out)
	}
	if err != nil {
		return nil, err
	}
	// Closing waits for the server goroutines, after which their
	// tracers and counters are safe to read.
	if err := tsys.close(); err != nil {
		return nil, err
	}
	if err := ur.sys.close(); err != nil {
		return nil, err
	}
	if t.lawErr != nil || t.failed > 0 {
		return nil, fmt.Errorf("traced leg: %d wrong replies, law: %v", t.failed, t.lawErr)
	}
	if err := ts.writeFile(filepath.Join(outDir, "trace_"+o.spec.name+".json"), o.spec.name); err != nil {
		return nil, err
	}
	kept, _ := ts.recorded()
	out["trace.spans"] = float64(kept)
	// The legs' rounds alternate, so round i of one ran beside round i
	// of the other: the overhead is the median of the paired ratios.
	ratios, traced := u.perRound(roundRec.rate), t.perRound(roundRec.rate)
	for i := range ratios {
		ratios[i] /= traced[i]
	}
	out["trace.overhead_ratio"] = median(ratios)

	ops := float64(t.attempted)
	wall := float64(t.timed().wall.Nanoseconds())
	// Span times are scaled to reference-host time like every other
	// duration; shares of the timed wall need no scaling.
	scale := t.ref().scale()
	selfNs := func(a spanAgg) float64 { return mean(a.self(), a.n) * scale }
	totalNs := func(a spanAgg) float64 { return mean(a.total, a.n) * scale }
	load := sumAgg(ts.all(), spLoad)
	out["backend.load_ns"] = totalNs(load)
	out["backend.load_share"] = float64(load.total) / wall

	cl := ts.client
	switch o.spec.kind {
	case kindDirect:
		out["live.get_hit_ns"] = selfNs(cl.agg[spGetHit])
		out["live.get_fill_ns"] = selfNs(cl.agg[spGetFill])
		out["live.put_overwrite_ns"] = selfNs(cl.agg[spPutOverwrite])
		out["live.put_insert_ns"] = selfNs(cl.agg[spPutInsert])
		return u, nil
	case kindTCP:
		out["proto.client_queue_ns"] = float64(cl.agg[spQueue].total) / ops * scale
		out["proto.client_flush_us"] = totalNs(cl.agg[spFlush]) / 1e3
	case kindCluster:
		out["cluster.call_us"] = totalNs(cl.agg[spCall]) / 1e3
		out["cluster.router_self_us"] = selfNs(cl.agg[spCall]) / 1e3
		out["cluster.node_flush_us"] = totalNs(cl.agg[spNodeFlush]) / 1e3
		out["proto.client_flush_us"] = out["cluster.node_flush_us"]
		out["cluster.keys_per_call"] = mean(int64(t.attempted), cl.agg[spCall].n)
	}

	// Server side. Between timed sections a server only waits in Read,
	// so the wait inside the sections is the total wait minus the gaps.
	// Backend calls are timed one in traceEvery and scaled to all.
	nodes := float64(len(ts.servers))
	read := sumAgg(ts.servers, spServerRead)
	write := sumAgg(ts.servers, spServerWrite)
	sampled := sumAgg(ts.servers, spBackendGet, spBackendPut)
	var in, outBytes, writes, calls, maxCalls int64
	for _, n := range tsys.nodes {
		in += n.conn.bytesIn
		outBytes += n.conn.bytesOut
		writes += n.conn.writes
		calls += n.backend.calls
		maxCalls = max(maxCalls, n.backend.calls)
	}
	gaps := float64((t.phaseWall - t.timed().wall).Nanoseconds()) * nodes
	wait := max(float64(read.total)-gaps, 0)
	out["net.server_read_wait_share"] = wait / (wall * nodes)
	out["net.server_write_share"] = float64(write.total) / (wall * nodes)
	if busy := wall*nodes - wait; busy > 0 {
		out["proto.server_backend_share"] = mean(sampled.total, sampled.n) * float64(calls) / busy
	}
	out["proto.bytes_in_per_op"] = float64(in) / ops
	out["proto.bytes_out_per_op"] = float64(outBytes) / ops
	out["proto.writes_per_kop"] = float64(writes) / ops * 1000
	if o.spec.kind == kindCluster && calls > 0 {
		out["cluster.node_imbalance"] = float64(maxCalls) * nodes / float64(calls)
	}
	return u, nil
}

// readOut measures what can be read from the untraced system after its
// rounds: cache counters, occupancy, the cost of the read-outs
// themselves, and the snapshot.
func readOut(s *system, u *leg, out map[string]float64) error {
	kops := float64(u.attempted) / 1000
	st := u.final
	out["live.evictions_per_kop"] = float64(st.Evictions) / kops
	out["live.dirty_evictions_per_kop"] = float64(st.DirtyEvictions) / kops
	out["live.retargets_per_kop"] = float64(st.Retargets-u.warmRetargets) / kops
	out["live.load_races"] = float64(st.LoadRaces)
	out["live.entries"] = float64(st.Entries)
	if st.Entries > 0 {
		out["live.dirty_entries_share"] = float64(st.DirtyEntries) / float64(st.Entries)
	}
	out["probe.costhist_buckets"] = float64(len(st.CostHist.Buckets))

	// One-shot timings, scaled by the rounds' reference readings.
	scale := u.ref().scale()
	since := func(t0 time.Time) float64 { return ms(time.Since(t0)) * scale }
	c := s.caches[0]
	t0 := time.Now()
	c.Stats()
	out["live.stats_ms"] = since(t0)
	t0 = time.Now()
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	out["live.check_invariants_ms"] = since(t0)

	t0 = time.Now()
	snap, err := c.SnapBytes(0, c.Sets())
	if err != nil {
		return err
	}
	out["snap.encode_ms"] = since(t0)
	fresh, err := live.New(c.Config())
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := fresh.RestoreBytes(snap); err != nil {
		return fmt.Errorf("restoring the snapshot: %w", err)
	}
	out["snap.restore_ms"] = since(t0)
	// A range restore keeps the target's own counters, so what must
	// match is the occupancy and the policy state.
	src, got := c.Stats(), fresh.Stats()
	if got.Entries != src.Entries || got.DirtyEntries != src.DirtyEntries || fmt.Sprint(got.TargetHist) != fmt.Sprint(src.TargetHist) {
		return fmt.Errorf("restored cache differs: %d/%d entries (dirty), source %d/%d", got.Entries, got.DirtyEntries, src.Entries, src.DirtyEntries)
	}
	out["snap.bytes"] = float64(len(snap))
	if src.Entries > 0 {
		out["snap.bytes_per_entry"] = float64(len(snap)) / float64(src.Entries)
	}
	if u.warmSnapBytes > 0 {
		out["snap.bytes_growth"] = float64(len(snap)) / float64(u.warmSnapBytes)
	}
	return nil
}

// simTraced runs sim_llc's traced leg. The simulator has no seam to
// decorate: the spans are one per job, around rwp.Run, which costs two
// clock reads per job. There is no second leg, and the overhead ratio
// is 1 by construction.
func simTraced(o runOpts, ref *hostRef, outDir string, out map[string]float64) (*leg, error) {
	ts := newTraceSet(0)
	u, err := runSim(o, ref, ts.client)
	if err != nil {
		return nil, err
	}
	if err := ts.writeFile(filepath.Join(outDir, "trace_"+o.spec.name+".json"), o.spec.name); err != nil {
		return nil, err
	}
	kept, _ := ts.recorded()
	out["trace.spans"] = float64(kept)
	out["trace.overhead_ratio"] = 1

	s := u.sim
	scale := u.ref().scale()
	out["sim.job_ms_lru"] = median(s.jobMs[0]) * scale
	out["sim.job_ms_rwp"] = median(s.jobMs[1]) * scale
	out["sim.rwp_host_overhead"] = out["sim.job_ms_rwp"] / out["sim.job_ms_lru"]
	var mpki, wb float64
	for p, name := range simProfiles {
		out["sim.speedup_"+name] = s.speedup(p)
		mpki += s.ref[2*p+1].ReadMPKI
		wb += s.ref[2*p+1].WritebacksPKI
	}
	out["sim.read_mpki_rwp"] = mpki / float64(len(simProfiles))
	out["sim.writebacks_pki_rwp"] = wb / float64(len(simProfiles))
	return u, nil
}
