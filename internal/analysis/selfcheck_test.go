package analysis

import "testing"

// TestSelfCheck runs the full analyzer suite over the whole module and
// fails on any unsuppressed finding. This is the enforcement point that
// makes the lock rules part of the tier-1 gate: `go test ./...` cannot
// pass while a function does blocking work under a held mutex or leaks
// a lock past an exit — unless the site carries a justified
// //rwplint:allow directive.
func TestSelfCheck(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	// A silent load failure would vacuously pass; the module has ~30
	// packages (test packages included), so anything below 20 means the
	// walker or type-checker lost packages.
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader lost packages", len(pkgs))
	}
	findings := Run(Default(), pkgs)
	for _, f := range Unsuppressed(findings) {
		t.Errorf("%s", f)
	}
	if t.Failed() {
		t.Log("fix the finding or suppress it with //rwplint:allow <rule> — <reason> (see DESIGN.md, Determinism guarantees)")
	}
}
