package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// A/A mode: the evidence that two sets of runs of the same code agree
// within the benchmark's own bounds, and the only ground on which a
// bound may be tightened. Two sets of n full end-to-end runs of this
// binary are interleaved ABAB...; per workload and metric it prints
// each set's median, their relative difference and the bound.

// result is the object a driver-mode run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runAA(n int, specs []workloadSpec, seed uint64, seconds float64, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// values[workload][metric][set] lists the runs' values.
	values := map[string]map[string][2][]float64{}
	for i := 0; i < 2*n; i++ {
		for _, spec := range specs {
			cmd := exec.Command(self, "-workload", spec.name, "-trace", "0", "-out", outDir,
				"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: A/A run %d of %s: %v\n", i, spec.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: A/A run %d of %s: no correct result (%v)\n", i, spec.name, err)
				return 1
			}
			if values[spec.name] == nil {
				values[spec.name] = map[string][2][]float64{}
			}
			for _, d := range endToEnd {
				sets := values[spec.name][d.name]
				sets[i%2] = append(sets[i%2], res.Metrics[d.name].Value)
				values[spec.name][d.name] = sets
			}
			fmt.Fprintf(stderr, "bench: A/A run %d/%d %s done\n", i+1, 2*n, spec.name)
		}
	}

	code := 0
	fmt.Fprintln(stdout, "| workload | metric | median A | median B | difference | bound | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|")
	for _, spec := range specs {
		for _, d := range endToEnd {
			sets := values[spec.name][d.name]
			a, b := median(sets[0]), median(sets[1])
			diff := 0.0
			if a > 0 {
				diff = (b - a) / a
			}
			verdict := "ok"
			switch {
			case d.exact && !allEqual(append(append([]float64(nil), sets[0]...), sets[1]...)):
				verdict = "EXACT METRIC DIFFERS"
				code = 1
			case diff > d.bound || diff < -d.bound:
				verdict = "OUTSIDE BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %+.2f%% | %.1f%% | %s |\n", spec.name, d.name, a, b, diff*100, d.bound*100, verdict)
		}
	}
	return code
}

func allEqual(vs []float64) bool {
	for _, v := range vs {
		if !sameBits(v, vs[0]) {
			return false
		}
	}
	return true
}
