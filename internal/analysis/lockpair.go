package analysis

import (
	"go/ast"
	"go/token"
)

// LockPair checks that every sync.Mutex/RWMutex Lock()/RLock() in a
// function is released before the function can exit: either a `defer
// Unlock()`/`defer RUnlock()` on the same receiver, or an explicit
// unlock on every return path. A lock that leaks past one early return
// wedges its shard forever — the kind of bug that survives light
// testing because the leaking path is the rare one (an error return, a
// validation reject).
//
// The walk is the held-lock flow lockheld also reads (lockflow.go),
// path-sensitive within one function: branches are explored
// separately, early returns are checked where they occur, and a `defer
// Unlock()` — direct, or an unlock inside a deferred function literal —
// releases the lock for the exit check, and still releases it when the
// lock is unlocked explicitly and taken again by the same method. A lock acquired inside a loop body must be released
// by the end of that body (the next iteration's Lock would
// self-deadlock), unless the same lock was already held, by the same
// method, when the loop started: unlocking around blocking work and
// re-locking before the next iteration is the pattern lockheld asks
// for. RLock is matched only by RUnlock and Lock only by Unlock. Paths
// ending in panic() are not checked — only a deferred unlock can
// release across a panic, and in this codebase panics are crash-stops,
// not control flow.
//
// Like lockheld, the analysis is per-function: helpers that lock in
// one function and unlock in another are not modeled (and are exactly
// the style these rules exist to discourage).
var LockPair = &Analyzer{
	Name: "lockpair",
	Doc:  "every Lock/RLock must have a defer Unlock/RUnlock or an explicit unlock on all exit paths",
	Run: func(pass *Pass) {
		walkLockFlow(pass, &pairRule{pass: pass, reported: map[token.Pos]bool{}})
	},
}

// pairRule reports acquisitions outstanding, and not deferred, at an
// exit or at the end of a loop iteration.
type pairRule struct {
	pass *Pass
	// reported dedupes findings per acquisition site: a lock leaking
	// past three returns is one bug, not three.
	reported map[token.Pos]bool
}

func (w *pairRule) exit(held []heldLock, at token.Pos) {
	exit := w.pass.Fset.Position(at)
	for _, e := range held {
		if w.first(e) {
			w.pass.Reportf(e.pos, "%s.%s() is not released on the exit path at line %d; add defer %s.%s() or unlock before returning", e.expr, e.op, exit.Line, e.expr, unlockOf[e.op])
		}
	}
}

func (w *pairRule) loopEnd(entry, out []heldLock) {
	for _, e := range out {
		if !holding(entry, e.expr, e.op) && w.first(e) {
			w.pass.Reportf(e.pos, "%s.%s() inside a loop body is not released by the end of the iteration; the next %s would deadlock", e.expr, e.op, e.op)
		}
	}
}

// first reports whether e is outstanding and not yet reported, and
// marks it reported.
func (w *pairRule) first(e heldLock) bool {
	if e.deferred || w.reported[e.pos] {
		return false
	}
	w.reported[e.pos] = true
	return true
}

func (*pairRule) eval(ast.Node, []heldLock) {}

func (*pairRule) acquire(*ast.CallExpr, string, string, []heldLock) {}
