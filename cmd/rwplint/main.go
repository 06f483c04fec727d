// Command rwplint runs rwp's lock-rule static analysis
// (internal/analysis) over the module and reports findings as
//
//	file:line rule: message
//
// relative to the module root. Usage:
//
//	rwplint [-v] [-report] [packages]
//
// With no arguments or "./..." it checks every package in the module.
// Explicit directory arguments (e.g. ./internal/cache) check just those
// packages; this is also the only way to lint a testdata fixture.
//
// -report appends a per-rule summary table (finding and suppression
// counts for every rule in the suite) after any findings.
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 load/usage error.
// Suppress a finding with "//rwplint:allow <rule> — <reason>" on the
// offending line or the line above; -v lists suppressed findings too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rwp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rwplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "also list suppressed findings and their count")
	report := fs.Bool("report", false, "append a per-rule finding/suppression count table")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "rwplint: %v\n", err)
		return 2
	}

	var pkgs []*analysis.Package
	rest := fs.Args()
	wholeModule := len(rest) == 0 || (len(rest) == 1 && rest[0] == "./...")
	if wholeModule {
		pkgs, err = loader.LoadModule()
	} else {
		pkgs, err = loader.LoadDirs(rest)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rwplint: %v\n", err)
		return 2
	}

	findings := analysis.Run(analysis.Default(), pkgs)
	unsuppressed := analysis.Unsuppressed(findings)
	suppressed := len(findings) - len(unsuppressed)
	for _, f := range unsuppressed {
		fmt.Fprintf(stdout, "%s:%d %s: %s\n", relPath(loader.Root, f.Pos.Filename), f.Pos.Line, f.Rule, f.Message)
	}
	if *verbose {
		for _, f := range findings {
			if f.Suppressed {
				fmt.Fprintf(stdout, "%s:%d %s: suppressed: %s\n", relPath(loader.Root, f.Pos.Filename), f.Pos.Line, f.Rule, f.Message)
			}
		}
		fmt.Fprintf(stdout, "rwplint: %d packages, %d findings (%d suppressed)\n", len(pkgs), len(findings), suppressed)
	}
	if *report {
		writeReport(stdout, len(pkgs), findings)
	}
	if len(unsuppressed) > 0 {
		return 1
	}
	return 0
}

// writeReport prints the per-rule finding/suppression count table. All
// suite rules appear, zeros included, so a diff of two reports shows
// rules going quiet as clearly as rules firing.
func writeReport(w io.Writer, pkgs int, findings []analysis.Finding) {
	unByRule := map[string]int{}
	supByRule := map[string]int{}
	rules := map[string]bool{"directive": true}
	for _, a := range analysis.Default() {
		rules[a.Name] = true
	}
	for _, f := range findings {
		rules[f.Rule] = true
		if f.Suppressed {
			supByRule[f.Rule]++
		} else {
			unByRule[f.Rule]++
		}
	}
	names := make([]string, 0, len(rules))
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "rwplint report: %d packages, %d findings (%d suppressed)\n",
		pkgs, len(findings), len(findings)-len(analysis.Unsuppressed(findings)))
	fmt.Fprintf(w, "%-12s %9s %10s\n", "rule", "findings", "suppressed")
	for _, r := range names {
		fmt.Fprintf(w, "%-12s %9d %10d\n", r, unByRule[r], supByRule[r])
	}
}

// relPath renders file positions relative to the module root (or the
// working directory for files outside it) for stable, short output.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}
