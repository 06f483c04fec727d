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

func TestSuppressionSameLine(t *testing.T) {
	src := `package fix

import "math/rand" //rwplint:allow norand — fixture exercising same-line suppression

var _ = rand.Int
`
	findings := checkSrc(t, "rwp/internal/fix", src, NoRand)
	if len(Unsuppressed(findings)) != 0 {
		t.Fatalf("same-line directive did not suppress: %v", findings)
	}
	if len(findings) != 1 || !findings[0].Suppressed {
		t.Fatalf("suppressed finding should be retained: %v", findings)
	}
}

func TestSuppressionPrecedingLine(t *testing.T) {
	src := `package fix

//rwplint:allow norand — fixture exercising preceding-line suppression
import "math/rand"

var _ = rand.Int
`
	findings := checkSrc(t, "rwp/internal/fix", src, NoRand)
	if len(Unsuppressed(findings)) != 0 {
		t.Fatalf("preceding-line directive did not suppress: %v", findings)
	}
}

func TestSuppressionWrongRuleDoesNotApply(t *testing.T) {
	src := `package fix

import "math/rand" //rwplint:allow floateq — wrong rule on purpose

var _ = rand.Int
`
	findings := checkSrc(t, "rwp/internal/fix", src, NoRand)
	wantFindings(t, findings, "norand", 3)
}

func TestSuppressionAdjacentRules(t *testing.T) {
	// One line trips two rules; the preceding-line directive suppresses
	// one, the same-line directive the other. Adjacent directives must
	// not shadow or consume each other.
	src := `package fix

import "time"

//rwplint:allow nowallclock — fixture: first of two rules on the next line
var _ = float64(time.Now().Unix()) == 0.5 //rwplint:allow floateq — fixture: second rule, same line
`
	findings := checkSrc(t, "rwp/internal/fix", src, NoWallClock, FloatEq)
	if un := Unsuppressed(findings); len(un) != 0 {
		t.Fatalf("adjacent directives did not both apply: %v", un)
	}
	byRule := map[string]bool{}
	for _, f := range findings {
		if f.Suppressed {
			byRule[f.Rule] = true
		}
	}
	if !byRule["nowallclock"] || !byRule["floateq"] {
		t.Fatalf("want both rules suppressed (retained), got %v", findings)
	}
}

func TestSuppressionMultiLineStatement(t *testing.T) {
	// A directive above a statement that spans several lines covers the
	// finding, which is reported at the statement's first line.
	src := `package fix

import "time"

//rwplint:allow nowallclock — fixture: statement below spans three lines
var _ = time.Now().
	Add(time.Second).
	Unix()
`
	findings := checkSrc(t, "rwp/internal/fix", src, NoWallClock)
	if un := Unsuppressed(findings); len(un) != 0 {
		t.Fatalf("directive above a multi-line statement did not suppress: %v", un)
	}
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings at all; it should violate norand")
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
	findings := checkSrc(t, "rwp/internal/fix", src, NoRand)
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
	// suppression is not a typo just because this pass runs norand.
	src := `package fix

//rwplint:allow lockpair — fixture: valid rule, not in the running subset
var X = 1
`
	findings := checkSrc(t, "rwp/internal/fix", src, NoRand)
	if len(Unsuppressed(findings)) != 0 {
		t.Fatalf("suite-rule directive flagged as unknown: %v", findings)
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string // the unsuppressed findings' rules, sorted
	}{
		{"allow without a reason", `package fix

//rwplint:allow norand
import "math/rand"

var _ = rand.Int
`, []string{"directive", "norand"}},
		// There is no hot-path directive: a leftover one marks nothing
		// and is reported like any other malformed directive.
		{"hotpath", `package fix

//rwplint:hotpath — fast path
func F(n int) int { return n * 2 }
`, []string{"directive"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			un := Unsuppressed(checkSrc(t, "rwp/internal/fix", c.src, NoRand))
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
		Rule:    "norand",
		Message: "boom",
	}
	if got, want := f.String(), "internal/x/x.go:7 norand: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestPathScopeHelpers(t *testing.T) {
	cases := []struct {
		path  string
		under bool
		sub   string
	}{
		{"rwp/internal/cache", true, "cache"},
		{"rwp/internal/analysis/testdata/badpkg", true, "analysis/testdata/badpkg"},
		{"rwp/cmd/rwpexp", false, ""},
		{"rwp", false, ""},
		{"internal/x", true, "x"},
	}
	for _, c := range cases {
		if underInternal(c.path) != c.under {
			t.Errorf("underInternal(%q) = %v, want %v", c.path, !c.under, c.under)
		}
		if got := internalPkg(c.path); got != c.sub {
			t.Errorf("internalPkg(%q) = %q, want %q", c.path, got, c.sub)
		}
	}
}
