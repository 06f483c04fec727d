package main

// The benchmark's fixed vocabulary: five workloads, thirteen end-to-end
// metrics and the per-layer metric list. BENCHMARK.json at the repo
// root repeats these tables for the driver; spec_test.go fails when the
// two disagree.

// chunkOps is the number of operations generated, outside every timed
// section, before each timed section runs them.
const chunkOps = 65536

// valueSize is the payload size of every Put and Loader fill.
const valueSize = 64

// exactRounds is the number of leading rounds the counted metrics
// (hit rate, loads, model cost, allocations, heap) are taken over. It
// is also the least number of rounds a run measures, so those metrics
// are pure functions of (code, seed) however many more rounds the time
// allows on a given host.
const exactRounds = 11

// traceRounds is the length of each leg of a traced run.
const traceRounds = 9

// setups is how often a run builds and warms the system; setup_s is
// the median.
const setups = 3

type kind int

const (
	kindDirect kind = iota
	kindTCP
	kindCluster
	kindSim
)

// servers is the number of cache nodes a workload kind serves over TCP.
func (k kind) servers() int {
	switch k {
	case kindTCP:
		return 1
	case kindCluster:
		return 2
	}
	return 0
}

// workloadSpec is one workload's fixed shape.
type workloadSpec struct {
	name   string
	why    string
	kind   kind
	stream string // live workloads: "fit" or "mix4"
	// roundChunks and warmChunks size one timed round and the warm
	// pass of a set-up, in chunks of chunkOps operations (sim_llc: in
	// rounds of the eight jobs).
	roundChunks int
	warmChunks  int
}

var workloads = []workloadSpec{
	{
		name: "direct_fit", kind: kindDirect, stream: "fit", roundChunks: 16, warmChunks: 32,
		why: "in-process Get/Put, working set fits the cache: the hit path alone, no wire, no Loader, no eviction",
	},
	{
		name: "direct_spill", kind: kindDirect, stream: "mix4", roundChunks: 6, warmChunks: 12,
		why: "in-process Get/Put at about 19x capacity with 38% puts: miss, Loader fill, dirty eviction, RWP retargets",
	},
	{
		name: "tcp_pipe", kind: kindTCP, stream: "fit", roundChunks: 4, warmChunks: 8,
		why: "one ServeConn on loopback TCP, single-key frames 32 per flush: codec, per-request allocations, flush coalescing",
	},
	{
		name: "cluster_batch", kind: kindCluster, stream: "fit", roundChunks: 4, warmChunks: 8,
		why: "two nodes behind the cluster router, full 64-key MGET/MPUT batches: fan-out, merge, server batch path",
	},
	{
		name: "sim_llc", kind: kindSim, roundChunks: 1, warmChunks: 2,
		why: "rwp.Run simulator jobs on four profiles under lru and rwp: the paper's own artefact, bypasses internal/live",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	exact  bool    // end-to-end only: a pure function of (code, seed), identical on every run
	layer  string  // per-layer only: the module measured
	moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// The bounds are what ten runs on ten seeds on the reference host
// support (README.md, "Bounds"): at least three times the widest spread
// any workload showed. The wall-clock metrics sit at the largest bound
// the driver allows, because the host is shared; the counted ones are
// identical from run to run on one seed and move only with the seed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.08},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.08},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "read_hit_rate", unit: "share", better: "higher", bound: 0.06, exact: true},
	{name: "backend_loads_per_kop", unit: "count", better: "lower", bound: 0.2, exact: true},
	{name: "model_cost_per_op", unit: "count", better: "lower", bound: 0.06, exact: true},
	{name: "rwp_lru_model_speedup", unit: "ratio", better: "higher", bound: 0.05, exact: true},
	{name: "verified_ops_share", unit: "share", better: "higher", bound: 0.001, exact: true},
}

var perLayer = []metricDef{
	{name: "loadgen.next_ns", unit: "ns", better: "lower", layer: "loadgen", moves: "nothing end to end (generation is outside every timed section); total run time only"},
	{name: "loadgen.allocs_per_op", unit: "count", better: "lower", layer: "loadgen", moves: "nothing end to end"},

	{name: "live.get_hit_ns", unit: "ns", better: "lower", layer: "live", moves: "direct_fit ops_per_s, cpu_us_per_op, p50_us; at most 15% of tcp_pipe"},
	{name: "live.put_overwrite_ns", unit: "ns", better: "lower", layer: "live", moves: "direct_fit ops_per_s"},
	{name: "live.get_fill_ns", unit: "ns", better: "lower", layer: "live", moves: "direct_spill ops_per_s (Loader child excluded)"},
	{name: "live.put_insert_ns", unit: "ns", better: "lower", layer: "live", moves: "direct_spill ops_per_s"},
	{name: "live.evictions_per_kop", unit: "count", better: "lower", layer: "live", moves: "direct_spill backend_loads_per_kop, model_cost_per_op; about 0 on direct_fit"},
	{name: "live.dirty_evictions_per_kop", unit: "count", better: "lower", layer: "live", moves: "direct_spill model_cost_per_op"},
	{name: "live.retargets_per_kop", unit: "count", better: "lower", layer: "live", moves: "direct_spill ops_per_s, heap_mb"},
	{name: "live.load_races", unit: "count", better: "lower", layer: "live", moves: "must stay 0 with one client"},
	{name: "live.hashkey_ns", unit: "ns", better: "lower", layer: "live", moves: "every live workload's ops_per_s"},
	{name: "live.new_ms", unit: "ms", better: "lower", layer: "live", moves: "setup_s"},
	{name: "live.stats_ms", unit: "ms", better: "lower", layer: "live", moves: "nothing timed; accounting-collapse changes"},
	{name: "live.check_invariants_ms", unit: "ms", better: "lower", layer: "live", moves: "nothing timed"},
	{name: "live.entries", unit: "count", better: "higher", layer: "live", moves: "heap_mb"},
	{name: "live.dirty_entries_share", unit: "share", better: "lower", layer: "live", moves: "direct_spill model_cost_per_op"},

	{name: "probe.costhist_observe_ns", unit: "ns", better: "lower", layer: "probe", moves: "live.get_hit_ns, then direct_fit ops_per_s"},
	{name: "probe.costhist_buckets", unit: "count", better: "lower", layer: "probe", moves: "probe.costhist_observe_ns"},

	{name: "backend.load_ns", unit: "ns", better: "lower", layer: "backend", moves: "direct_spill ops_per_s ceiling (benchmark-owned cost)"},
	{name: "backend.load_share", unit: "share", better: "lower", layer: "backend", moves: "share of direct_spill timed wall a reader must discount"},

	{name: "snap.bytes", unit: "B", better: "lower", layer: "snap", moves: "heap_mb"},
	{name: "snap.bytes_per_entry", unit: "B", better: "lower", layer: "snap", moves: "heap_mb"},
	{name: "snap.bytes_growth", unit: "ratio", better: "lower", layer: "snap", moves: "heap_mb on direct_spill; bounded-state changes bring it to 1"},
	{name: "snap.encode_ms", unit: "ms", better: "lower", layer: "snap", moves: "nothing timed"},
	{name: "snap.restore_ms", unit: "ms", better: "lower", layer: "snap", moves: "nothing timed"},

	{name: "proto.append_frame_ns", unit: "ns", better: "lower", layer: "proto", moves: "tcp_pipe ops_per_s"},
	{name: "proto.read_frame_ns", unit: "ns", better: "lower", layer: "proto", moves: "tcp_pipe ops_per_s"},
	{name: "proto.read_frame_allocs", unit: "count", better: "lower", layer: "proto", moves: "tcp_pipe allocs_per_op"},
	{name: "proto.serve_get_ns", unit: "ns", better: "lower", layer: "proto", moves: "tcp_pipe ops_per_s, cpu_us_per_op"},
	{name: "proto.serve_get_allocs", unit: "count", better: "lower", layer: "proto", moves: "tcp_pipe allocs_per_op"},
	{name: "proto.serve_mget_ns_per_key", unit: "ns", better: "lower", layer: "proto", moves: "cluster_batch ops_per_s, cpu_us_per_op"},
	{name: "proto.serve_mget_allocs_per_key", unit: "count", better: "lower", layer: "proto", moves: "cluster_batch allocs_per_op"},
	{name: "proto.client_queue_ns", unit: "ns", better: "lower", layer: "proto", moves: "tcp_pipe p50_us"},
	{name: "proto.client_flush_us", unit: "us", better: "lower", layer: "proto", moves: "tcp_pipe and cluster_batch p50_us"},
	{name: "proto.server_backend_share", unit: "share", better: "higher", layer: "proto", moves: "how much of a wire workload a cache-only change can move"},
	{name: "proto.bytes_in_per_op", unit: "B", better: "lower", layer: "proto", moves: "tcp_pipe and cluster_batch ops_per_s"},
	{name: "proto.bytes_out_per_op", unit: "B", better: "lower", layer: "proto", moves: "tcp_pipe and cluster_batch ops_per_s"},
	{name: "proto.writes_per_kop", unit: "count", better: "lower", layer: "proto", moves: "tcp_pipe p50_us (flush coalescing)"},

	{name: "net.server_read_wait_share", unit: "share", better: "lower", layer: "net", moves: "nothing the repo controls; explains wall minus CPU"},
	{name: "net.server_write_share", unit: "share", better: "lower", layer: "net", moves: "nothing the repo controls"},

	{name: "cluster.call_us", unit: "us", better: "lower", layer: "cluster", moves: "cluster_batch p50_us, ops_per_s"},
	{name: "cluster.router_self_us", unit: "us", better: "lower", layer: "cluster", moves: "cluster_batch ops_per_s"},
	{name: "cluster.node_flush_us", unit: "us", better: "lower", layer: "cluster", moves: "cluster_batch p50_us"},
	{name: "cluster.keys_per_call", unit: "count", better: "higher", layer: "cluster", moves: "cluster_batch ops_per_s"},
	{name: "cluster.node_imbalance", unit: "ratio", better: "lower", layer: "cluster", moves: "cluster_batch p90_us"},
	{name: "cluster.ring_route_ns", unit: "ns", better: "lower", layer: "cluster", moves: "cluster.router_self_us"},

	{name: "sim.job_ms_lru", unit: "ms", better: "lower", layer: "sim", moves: "sim_llc ops_per_s"},
	{name: "sim.job_ms_rwp", unit: "ms", better: "lower", layer: "sim", moves: "sim_llc ops_per_s"},
	{name: "sim.rwp_host_overhead", unit: "ratio", better: "lower", layer: "sim", moves: "sim_llc ops_per_s"},
	{name: "sim.speedup_mcf", unit: "ratio", better: "higher", layer: "sim", moves: "rwp_lru_model_speedup"},
	{name: "sim.speedup_gcc", unit: "ratio", better: "higher", layer: "sim", moves: "rwp_lru_model_speedup"},
	{name: "sim.speedup_dealII", unit: "ratio", better: "higher", layer: "sim", moves: "rwp_lru_model_speedup"},
	{name: "sim.speedup_soplex", unit: "ratio", better: "higher", layer: "sim", moves: "rwp_lru_model_speedup"},
	{name: "sim.read_mpki_rwp", unit: "count", better: "lower", layer: "sim", moves: "sim_llc backend_loads_per_kop"},
	{name: "sim.writebacks_pki_rwp", unit: "count", better: "lower", layer: "sim", moves: "sim_llc model_cost_per_op"},

	{name: "cache.access_lru_ns", unit: "ns", better: "lower", layer: "cache", moves: "sim_llc ops_per_s"},
	{name: "cache.access_rwp_ns", unit: "ns", better: "lower", layer: "cache", moves: "sim_llc ops_per_s"},
	{name: "workload.next_ns", unit: "ns", better: "lower", layer: "workload", moves: "sim_llc ops_per_s; loadgen.next_ns"},

	{name: "runtime.gc_cycles", unit: "count", better: "lower", layer: "runtime", moves: "heap_mb, p90_us"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", layer: "runtime", moves: "p90_us"},
	{name: "runtime.gc_cpu_share", unit: "share", better: "lower", layer: "runtime", moves: "cpu_us_per_op; explains direct_spill spread"},

	{name: "client.p99_us", unit: "us", better: "lower", layer: "client", moves: "informational"},
	{name: "client.max_us", unit: "us", better: "lower", layer: "client", moves: "informational"},
	{name: "client.samples", unit: "count", better: "higher", layer: "client", moves: "informational: latency samples behind p50/p90/p99"},
	{name: "client.round_iqr_share", unit: "share", better: "lower", layer: "client", moves: "informational: the run's own noise gauge"},
	{name: "client.raw_ops_per_s", unit: "1/s", better: "higher", layer: "client", moves: "informational: ops_per_s before scaling to reference-host time"},
	{name: "client.rwp_lru_read_hit_ratio", unit: "ratio", better: "higher", layer: "client", moves: "informational: policy audit, exact"},

	{name: "host.ref_mem_ms", unit: "ms", better: "lower", layer: "host", moves: "informational: the memory reference kernel's mean time; 3 ms on a quiet reference host"},
	{name: "host.ref_alu_ms", unit: "ms", better: "lower", layer: "host", moves: "informational: the arithmetic reference kernel's mean time; 3 ms on a quiet reference host"},
	{name: "host.spin_ns_before", unit: "ns", better: "lower", layer: "host", moves: "informational: a busy neighbour shows here"},
	{name: "host.spin_ns_after", unit: "ns", better: "lower", layer: "host", moves: "informational"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "trace", moves: "informational: untraced over traced ops_per_s"},
	{name: "trace.spans", unit: "count", better: "higher", layer: "trace", moves: "informational"},
}
