package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// checkSrc type-checks one in-memory source file as package path and
// runs the given analyzers over it, returning all findings (suppressed
// included). Fixtures may import the standard library only.
func checkSrc(t *testing.T, path, src string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var errs []error
	conf := types.Config{
		Importer: newStdImporter(fset),
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, fset, []*ast.File{file}, info)
	if len(errs) > 0 {
		t.Fatalf("type-checking fixture: %v", errs[0])
	}
	pkg := &Package{Path: path, Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
	return Run(analyzers, []*Package{pkg})
}

// wantFindings asserts the unsuppressed findings hit exactly the given
// rule at the given lines (order-insensitive on equal lines).
func wantFindings(t *testing.T, findings []Finding, rule string, lines ...int) {
	t.Helper()
	un := Unsuppressed(findings)
	if len(un) != len(lines) {
		t.Fatalf("got %d unsuppressed findings, want %d: %v", len(un), len(lines), un)
	}
	for i, f := range un {
		if f.Rule != rule || f.Pos.Line != lines[i] {
			t.Errorf("finding %d = %s:%d %s, want line %d rule %s", i, f.Pos.Filename, f.Pos.Line, f.Rule, lines[i], rule)
		}
	}
}

// underLock is a fixture whose function holds mu from line 8 on; body
// starts at line 10, where a channel send trips lockheld.
func underLock(body string) string {
	return `package fix

import "sync"

var mu sync.Mutex

func F(ch chan int) {
	mu.Lock()
	defer mu.Unlock()
` + body + `
}
`
}

func TestSuppressionSameLine(t *testing.T) {
	src := underLock("\tch <- 1 //rwplint:allow lockheld — fixture exercising same-line suppression")
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	if len(Unsuppressed(findings)) != 0 {
		t.Fatalf("same-line directive did not suppress: %v", findings)
	}
	if len(findings) != 1 || !findings[0].Suppressed {
		t.Fatalf("suppressed finding should be retained: %v", findings)
	}
}

func TestSuppressionPrecedingLine(t *testing.T) {
	src := underLock("\t//rwplint:allow lockheld — fixture exercising preceding-line suppression\n\tch <- 1")
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	if len(Unsuppressed(findings)) != 0 {
		t.Fatalf("preceding-line directive did not suppress: %v", findings)
	}
}

func TestSuppressionWrongRuleDoesNotApply(t *testing.T) {
	src := underLock("\tch <- 1 //rwplint:allow lockpair — wrong rule on purpose")
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 10)
}

func TestSuppressionAdjacentRules(t *testing.T) {
	// One line trips two rules: a second lock taken while mu is held
	// (lockheld) and never released (lockpair). The preceding-line
	// directive suppresses one, the same-line directive the other.
	// Adjacent directives must not shadow or consume each other.
	src := underLock(`	var other sync.Mutex
	//rwplint:allow lockheld — fixture: first of two rules on the next line
	other.Lock() //rwplint:allow lockpair — fixture: second rule, same line`)
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld, LockPair)
	if un := Unsuppressed(findings); len(un) != 0 {
		t.Fatalf("adjacent directives did not both apply: %v", un)
	}
	byRule := map[string]bool{}
	for _, f := range findings {
		if f.Suppressed {
			byRule[f.Rule] = true
		}
	}
	if !byRule["lockheld"] || !byRule["lockpair"] {
		t.Fatalf("want both rules suppressed (retained), got %v", findings)
	}
}

func TestSuppressionMultiLineStatement(t *testing.T) {
	// A directive above a statement that spans several lines covers the
	// finding, which is reported at the statement's first line.
	src := underLock(`	//rwplint:allow lockheld — fixture: statement below spans three lines
	ch <- len(
		"abc",
	)`)
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	if un := Unsuppressed(findings); len(un) != 0 {
		t.Fatalf("directive above a multi-line statement did not suppress: %v", un)
	}
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings at all; it should violate lockheld")
	}
}

func TestSuppressionUnknownRuleReported(t *testing.T) {
	// A directive naming a rule no analyzer owns suppresses nothing —
	// and must say so, not vanish: a typo in a rule name that silently
	// disabled a suppression would be invisible until the finding it
	// was meant to cover resurfaced.
	src := `package fix

//rwplint:allow nosuchrule — fixture: rule name matches no analyzer
var X = 1
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	un := Unsuppressed(findings)
	if len(un) != 1 || un[0].Rule != "directive" {
		t.Fatalf("unknown-rule directive should yield one directive finding, got %v", un)
	}
	if !strings.Contains(un[0].Message, "nosuchrule") || !strings.Contains(un[0].Message, "unknown rule") {
		t.Fatalf("directive finding should name the unknown rule: %v", un[0])
	}
}

func TestSuppressionKnowsDefaultSuite(t *testing.T) {
	// The unknown-rule check must recognize every Default-suite rule
	// even when only a subset of analyzers is running — a lockpair
	// suppression is not a typo just because this pass runs lockheld.
	src := `package fix

//rwplint:allow lockpair — fixture: valid rule, not in the running subset
var X = 1
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	if len(Unsuppressed(findings)) != 0 {
		t.Fatalf("suite-rule directive flagged as unknown: %v", findings)
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string // the unsuppressed findings' rules, sorted
	}{
		{"allow without a reason", underLock("\t//rwplint:allow lockheld\n\tch <- 1"),
			[]string{"directive", "lockheld"}},
		// There is no hot-path directive: a leftover one marks nothing
		// and is reported like any other malformed directive.
		{"hotpath", `package fix

//rwplint:hotpath — fast path
func F(n int) int { return n * 2 }
`, []string{"directive"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			un := Unsuppressed(checkSrc(t, "rwp/internal/fix", c.src, LockHeld))
			var rules []string
			for _, f := range un {
				rules = append(rules, f.Rule)
			}
			slices.Sort(rules)
			if !slices.Equal(rules, c.want) {
				t.Fatalf("findings %v, want rules %v", un, c.want)
			}
		})
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:     token.Position{Filename: "internal/x/x.go", Line: 7},
		Rule:    "lockheld",
		Message: "boom",
	}
	if got, want := f.String(), "internal/x/x.go:7 lockheld: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
