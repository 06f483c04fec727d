// Package analysis is rwp's repo-specific static-analysis framework:
// a small, stdlib-only analogue of golang.org/x/tools/go/analysis that
// machine-checks the simulator's determinism and correctness invariants
// (see DESIGN.md "Determinism guarantees").
//
// The headline guarantee — the same sim.Options produce bit-identical
// Results — is only as strong as its weakest code path. Each Analyzer
// encodes one invariant as a syntactic/type-based rule; the full suite
// runs over every package in the module both from the cmd/rwplint CLI
// and from the tier-1 test gate (selfcheck_test.go), so a violation
// fails `go test ./...` before it can corrupt recorded results.
//
// Findings can be suppressed, one line at a time, with a justified
// directive comment:
//
//	//rwplint:allow <rule> — <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory: a directive without one does not suppress and is
// itself reported (rule "directive").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
	// Suppressed is true when a valid //rwplint:allow directive covers
	// the finding. Suppressed findings are retained (cmd/rwplint -v
	// lists them) but do not fail the run.
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// An Analyzer checks one invariant over a single type-checked package.
type Analyzer struct {
	// Name is the rule name used in reports and allow directives.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Run inspects the pass and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (e.g. "rwp/internal/cache").
	// External test packages get the conventional "_test" suffix.
	Path string
	Fset *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	findings *[]Finding
}

// Reportf records a finding of the pass's rule at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Default returns the full analyzer suite in reporting order.
func Default() []*Analyzer {
	return []*Analyzer{
		NoRand,
		NoWallClock,
		MapOrder,
		FloatEq,
		CtrWidth,
		LockHeld,
		LockPair,
	}
}

// Run applies every analyzer to every package, resolves allow
// directives, and returns all findings sorted by position. Suppressed
// findings are included with Suppressed set; Unsuppressed filters them.
//
// An allow directive naming a rule that matches no analyzer — neither
// one in the running set nor one in the Default suite — is reported
// (rule "directive") rather than silently ignored: a typo in a rule
// name must not quietly disable a suppression.
func Run(analyzers []*Analyzer, pkgs []*Package) []Finding {
	known := map[string]bool{"directive": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, a := range Default() {
		known[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				findings: &findings,
			}
			a.Run(pass)
		}
		findings = append(findings, applyDirectives(pkg, &findings, known)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return findings
}

// Unsuppressed returns the findings not covered by an allow directive.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// directiveRE matches "rwplint:allow <rule> <reason>" inside a comment.
// The reason may be separated by an em/en dash or given directly.
var directiveRE = regexp.MustCompile(`^rwplint:allow\s+([A-Za-z0-9_-]+)\s*(?:[—–:-]+\s*)?(.*)$`)

// directive is one parsed //rwplint:allow comment.
type directive struct {
	rule   string
	reason string
	file   string
	// lines covered: the directive's own line and, for a
	// comment that stands alone on its line, the following line.
	lines [2]int
}

// parseDirectives extracts the allow directives from a file's comments.
// Malformed directives (no reason) are reported as rule "directive".
func parseDirectives(fset *token.FileSet, file *ast.File, report func(Finding)) []directive {
	var dirs []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "rwplint:") {
				continue
			}
			m := directiveRE.FindStringSubmatch(text)
			pos := fset.Position(c.Pos())
			if m == nil || strings.TrimSpace(m[2]) == "" {
				report(Finding{
					Pos:     pos,
					Rule:    "directive",
					Message: "malformed rwplint directive: want //rwplint:allow <rule> — <reason>",
				})
				continue
			}
			dirs = append(dirs, directive{
				rule:   m[1],
				reason: strings.TrimSpace(m[2]),
				file:   pos.Filename,
				lines:  [2]int{pos.Line, pos.Line + 1},
			})
		}
	}
	return dirs
}

// applyDirectives marks findings in pkg covered by a directive as
// suppressed and returns any directive-parse findings to append
// (malformed directives and allow directives naming unknown rules).
func applyDirectives(pkg *Package, findings *[]Finding, known map[string]bool) []Finding {
	var extra []Finding
	var dirs []directive
	for _, f := range pkg.Files {
		dirs = append(dirs, parseDirectives(pkg.Fset, f, func(f Finding) {
			extra = append(extra, f)
		})...)
	}
	for _, d := range dirs {
		if !known[d.rule] {
			extra = append(extra, Finding{
				Pos:     token.Position{Filename: d.file, Line: d.lines[0]},
				Rule:    "directive",
				Message: fmt.Sprintf("allow directive names unknown rule %q; it suppresses nothing", d.rule),
			})
		}
	}
	if len(dirs) == 0 {
		return extra
	}
	for i := range *findings {
		f := &(*findings)[i]
		if f.Suppressed {
			continue
		}
		for _, d := range dirs {
			if d.rule != f.Rule || d.file != f.Pos.Filename {
				continue
			}
			if f.Pos.Line == d.lines[0] || f.Pos.Line == d.lines[1] {
				f.Suppressed = true
				break
			}
		}
	}
	return extra
}

// underInternal reports whether an import path has an "internal" path
// segment — the scope of the determinism rules (cmd/ and examples/ may
// talk to the OS; the simulator core may not).
func underInternal(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// internalPkg returns the path portion after the first "internal/"
// segment ("rwp/internal/cache" → "cache"), or "" when the path is not
// under internal/.
func internalPkg(path string) string {
	segs := strings.Split(path, "/")
	for i, seg := range segs {
		if seg == "internal" && i+1 < len(segs) {
			return strings.Join(segs[i+1:], "/")
		}
	}
	return ""
}
