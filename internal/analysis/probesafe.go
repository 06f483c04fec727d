package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Probesafe enforces the probe layer's zero-overhead contract: under
// internal/, every method call on a value of a probe-family interface
// type (a named interface ending in "Probe": Probe, ReqProbe) must be
// inside an `if x != nil { … }` guard for that same expression.
// An unguarded call either panics on the nil (disabled) probe or forces
// the caller to construct event structs unconditionally — both defeat
// the "nil probe costs one branch" guarantee documented in
// internal/probe.
//
// The guard is matched syntactically: the call's receiver expression
// must appear as `<expr> != nil` in the condition of an enclosing if
// statement (conjuncts of && are searched, parentheses unwrapped). The
// probe package itself is exempt — its concrete Recorder implements the
// interface and may of course call itself.
var Probesafe = &Analyzer{
	Name: "probesafe",
	Doc:  "flag Probe interface method calls not guarded by `if <recv> != nil`",
	Run: func(pass *Pass) {
		if !underInternal(pass.Path) {
			return
		}
		if internalPkg(strings.TrimSuffix(pass.Path, "_test")) == "probe" {
			return
		}
		for _, f := range pass.Files {
			guards := collectNilGuards(f)
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if !isProbeInterface(pass, sel.X) {
					return true
				}
				recv := types.ExprString(sel.X)
				if !guards.covers(recv, call.Pos()) {
					pass.Reportf(call.Pos(), "call %s.%s on a possibly-nil Probe; guard with `if %s != nil { … }`", recv, sel.Sel.Name, recv)
				}
				return true
			})
		}
	},
}

// nilGuard is one `if … <expr> != nil …` body region.
type nilGuard struct {
	expr       string
	start, end token.Pos
}

type nilGuards []nilGuard

// covers reports whether pos lies inside a guard body for expr.
func (gs nilGuards) covers(expr string, pos token.Pos) bool {
	for _, g := range gs {
		if g.expr == expr && g.start <= pos && pos < g.end {
			return true
		}
	}
	return false
}

// collectNilGuards records, for every if statement, which expressions
// its condition proves non-nil, and the body range that proof covers.
func collectNilGuards(f *ast.File) nilGuards {
	var gs nilGuards
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, expr := range nonNilConjuncts(ifs.Cond) {
			gs = append(gs, nilGuard{expr: expr, start: ifs.Body.Pos(), end: ifs.Body.End()})
		}
		return true
	})
	return gs
}

// nonNilConjuncts returns the expressions X for every `X != nil`
// conjunct of cond (descending through && and parentheses; an || arm
// proves nothing and is not descended).
func nonNilConjuncts(cond ast.Expr) []string {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return append(nonNilConjuncts(e.X), nonNilConjuncts(e.Y)...)
		case token.NEQ:
			if isNilIdent(e.Y) {
				return []string{types.ExprString(ast.Unparen(e.X))}
			}
			if isNilIdent(e.X) {
				return []string{types.ExprString(ast.Unparen(e.Y))}
			}
		}
	}
	return nil
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isProbeInterface reports whether the expression's type is a named
// interface whose name ends in "Probe" (any package: fixtures define
// their own). The suffix match covers the whole probe family — Probe
// for policy and driver events, ReqProbe for the request-stream
// recorder — so new capture hooks inherit the guard discipline without
// touching the rule.
func isProbeInterface(pass *Pass, x ast.Expr) bool {
	tv, ok := pass.Info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	return strings.HasSuffix(named.Obj().Name(), "Probe")
}
