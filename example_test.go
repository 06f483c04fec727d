package rwp_test

import (
	"bytes"
	"fmt"
	"log"

	"rwp"
)

// The canonical comparison: one benchmark under the baseline LRU policy
// and under Read-Write Partitioning. RWP keeps the lines that serve reads
// and sacrifices write-only ones; read misses stall the core, so fewer of
// them is direct speedup.
func ExampleRun() {
	cfg := rwp.Config{Policy: "lru", Warmup: 60_000, Measure: 200_000}
	lru, err := rwp.Run("sphinx3", cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Policy = "rwp"
	res, err := rwp.Run("sphinx3", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RWP speedup over LRU: %+.0f%%\n", (res.IPC/lru.IPC-1)*100)
	fmt.Printf("read misses removed:  %+.0f%%\n", (1-res.ReadMPKI/lru.ReadMPKI)*100)
	// Output:
	// RWP speedup over LRU: +14%
	// read misses removed:  +24%
}

// Four workloads share a 4 MiB LLC, the paper's multi-core setup. The
// weighted speedup sums each core's shared IPC over its IPC running
// alone under LRU on the same LLC. Every profile lays its components
// out at the same addresses, so the cores share some lines and the sum
// can pass the core count.
func ExampleRunMix() {
	mix := []string{"sphinx3", "dealII", "gobmk", "namd"}
	cfg := rwp.Config{Policy: "lru", LLCBytes: 4 << 20, Warmup: 150_000, Measure: 50_000}
	alone := make([]float64, len(mix))
	for i, name := range mix {
		r, err := rwp.Run(name, cfg)
		if err != nil {
			log.Fatal(err)
		}
		alone[i] = r.IPC
	}
	var throughput, weighted [2]float64
	for i, pol := range []string{"lru", "rwp"} {
		cfg.Policy = pol
		res, err := rwp.RunMix(mix, cfg)
		if err != nil {
			log.Fatal(err)
		}
		throughput[i], weighted[i] = res.Throughput, res.WeightedSpeedup(alone)
		fmt.Printf("%s: throughput %.2f IPC, weighted speedup %.2f\n", pol, throughput[i], weighted[i])
	}
	fmt.Printf("RWP over LRU: throughput %+.0f%%, weighted speedup %+.0f%%\n",
		(throughput[1]/throughput[0]-1)*100, (weighted[1]/weighted[0]-1)*100)
	// Output:
	// lru: throughput 8.64 IPC, weighted speedup 4.76
	// rwp: throughput 9.32 IPC, weighted speedup 5.68
	// RWP over LRU: throughput +8%, weighted speedup +19%
}

// Traces round-trip through the binary codec: record a workload,
// summarize its reference mix, then replay it.
func ExampleRunTrace() {
	var buf bytes.Buffer
	if _, err := rwp.WriteTrace(&buf, "bzip2", 200_000); err != nil {
		log.Fatal(err)
	}
	sum, err := rwp.ReadTraceSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bzip2 trace: %d accesses, %.0f%% reads, %.1f MiB touched\n",
		sum.Accesses, sum.ReadRatio*100, float64(sum.Lines)*64/(1<<20))
	res, err := rwp.RunTrace("bzip2", &buf, rwp.Config{
		Policy: "rwp", Warmup: 40_000, Measure: 160_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %s: IPC %.2f\n", res.Workload, res.IPC)
	// Output:
	// bzip2 trace: 200000 accesses, 50% reads, 4.4 MiB touched
	// replayed bzip2: IPC 0.52
}

// Watch RWP's dirty-partition target adapt across program phases: it
// sits high while cactusADM reads back the lines it wrote, then shrinks
// once sphinx3's writes are write-once output.
func ExampleRunPhases() {
	cfg := rwp.Config{Policy: "rwp", Warmup: 100_000, Measure: 400_000}
	_, series, err := rwp.RunPhases([]string{"cactusADM", "sphinx3"}, cfg, 200_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("access    IPC  read MPKI  dirty target")
	for _, p := range series {
		marker := ""
		if p.EndAccess == cfg.Measure {
			marker = "  <- phase boundary"
		}
		fmt.Printf("%-7d  %4.2f  %9.2f  %9d/16%s\n", p.EndAccess, p.IPC, p.ReadMPKI, p.DirtyTarget, marker)
	}
	// Output:
	// access    IPC  read MPKI  dirty target
	// 200000   0.55       7.28         13/16
	// 400000   0.56       6.50         13/16  <- phase boundary
	// 600000   0.38      55.55         12/16
	// 800000   0.39      41.15         10/16
}

// Reproduce the paper's storage claim: RWP at a few percent of RRP.
func ExampleStateOverhead() {
	rwpBits, _, err := rwp.StateOverhead("rwp", rwp.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rrpBits, _, err := rwp.StateOverhead("rrp", rwp.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RWP needs %.1f%% of RRP's state\n", 100*float64(rwpBits)/float64(rrpBits))
	// Output: RWP needs 4.1% of RRP's state
}
