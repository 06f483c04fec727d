package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// heldLock is one acquisition not yet released on the path being
// walked.
type heldLock struct {
	expr     string    // receiver expression, e.g. "sh.mu"
	op       string    // acquiring method: Lock or RLock
	pos      token.Pos // position of the acquiring call
	deferred bool      // a deferred unlock releases it at function exit
}

// lockState is the lock state on one path: the acquisitions
// outstanding, and the deferred unlocks left pending by an explicit
// unlock of the acquisition they were marking. A pending deferred
// unlock still runs at function exit, so the next acquisition of the
// same receiver by the same method is deferred too.
type lockState struct {
	held    []heldLock
	pending []heldLock // receiver and acquiring method of each pending deferred unlock
}

// unlockOf maps an acquiring method to the one that releases it: RLock
// is matched only by RUnlock and Lock only by Unlock.
var unlockOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// lockRule is what one lock rule reads from the held-lock flow. Each
// hook sees the locks outstanding at that point, in acquisition order;
// entries with deferred set are still held there.
type lockRule interface {
	// eval sees each expression and simple statement evaluated on
	// the path, and each range and select statement before its body
	// (a range over a channel, or a select without default, waits by
	// itself). Function literals inside n are not evaluated here.
	eval(n ast.Node, held []heldLock)
	// acquire sees each Lock/RLock before it joins held.
	acquire(call *ast.CallExpr, expr, op string, held []heldLock)
	// exit sees each return and the closing brace of a body that
	// falls through to it.
	exit(held []heldLock, at token.Pos)
	// loopEnd sees the end of a loop body that falls through, with the
	// locks held when the loop started.
	loopEnd(entry, out []heldLock)
}

// walkLockFlow walks every function body in the pass with rule. A
// function literal is walked as its own function: a goroutine or a
// deferred closure does not inherit the locks of the function that
// creates it. Calls into other functions are not followed.
func walkLockFlow(pass *Pass, rule lockRule) {
	w := lockFlow{pass: pass, rule: rule}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				if st, term := w.stmts(body.List, lockState{}); !term {
					rule.exit(st.held, body.Rbrace)
				}
			}
			return true // nested FuncLits are visited (and walked) separately
		})
	}
}

// lockFlow is the path-sensitive statement walk of one function body.
// A lock is held from its Lock()/RLock() statement until the matching
// unlock statement on the same receiver expression; a `defer Unlock()`
// (direct, or in a deferred function literal) marks it deferred, and a
// deferred unlock outlives an explicit one (lockState.pending). Each
// branch is walked from the incoming state, and where branches join, an
// acquisition outstanding on any path reaching the join is outstanding
// after it. A path ends at a return, a panic or a break/continue/goto
// (its state is not carried to the branch target), and a switch or
// select ends it when every clause does.
type lockFlow struct {
	pass *Pass
	rule lockRule
}

// stmts walks a statement list. It returns the state at fall-through,
// and whether every path through the list ends inside it.
func (w lockFlow) stmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		if st, term = w.stmt(s, st); term {
			return st, true
		}
	}
	return st, false
}

func (w lockFlow) stmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, isCall := s.X.(*ast.CallExpr)
		if !isCall {
			w.rule.eval(s, st.held)
			return st, false
		}
		if expr, op, isMu := mutexOp(w.pass, call); isMu {
			if _, acquires := unlockOf[op]; acquires {
				w.rule.acquire(call, expr, op, st.held)
				return acquire(st, heldLock{expr: expr, op: op, pos: call.Pos()}), false
			}
			return release(st, expr, op, false), false
		}
		w.rule.eval(s, st.held)
		id, isIdent := call.Fun.(*ast.Ident)
		return st, isIdent && id.Name == "panic" // crash-stop: only defers run
	case *ast.SendStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt:
		w.rule.eval(s, st.held)
		return st, false
	case *ast.ReturnStmt:
		w.rule.eval(s, st.held)
		w.rule.exit(st.held, s.Pos())
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.DeferStmt:
		w.evalOperands(s.Call, st.held)
		return w.deferUnlocks(s.Call, st), false
	case *ast.GoStmt:
		w.evalOperands(s.Call, st.held)
		return st, false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.IfStmt:
		st = w.init(s.Init, st)
		w.rule.eval(s.Cond, st.held)
		if s.Else == nil {
			return w.join(st, [][]ast.Stmt{s.Body.List}, false)
		}
		return w.join(st, [][]ast.Stmt{s.Body.List, {s.Else}}, true)
	case *ast.SwitchStmt:
		st = w.init(s.Init, st)
		w.rule.eval(s.Tag, st.held)
		bodies, exhaustive := clauses(s.Body)
		return w.join(st, bodies, exhaustive)
	case *ast.TypeSwitchStmt:
		st = w.init(s.Init, st)
		w.rule.eval(s.Assign, st.held)
		bodies, exhaustive := clauses(s.Body)
		return w.join(st, bodies, exhaustive)
	case *ast.SelectStmt:
		w.rule.eval(s, st.held)
		bodies, exhaustive := clauses(s.Body)
		return w.join(st, bodies, exhaustive)
	case *ast.ForStmt:
		st = w.init(s.Init, st)
		w.rule.eval(s.Cond, st.held)
		w.loop(st, s.Body.List, s.Post)
		return st, false
	case *ast.RangeStmt:
		w.rule.eval(s, st.held)
		w.loop(st, s.Body.List, nil)
		return st, false
	}
	return st, false
}

// init walks the optional init statement of an if, for or switch.
func (w lockFlow) init(s ast.Stmt, st lockState) lockState {
	if s != nil {
		st, _ = w.stmt(s, st)
	}
	return st
}

// evalOperands evaluates what a defer or go statement evaluates on the
// spot: the function value and the arguments. The call itself runs
// later, at function exit or on its own goroutine.
func (w lockFlow) evalOperands(call *ast.CallExpr, held []heldLock) {
	w.rule.eval(call.Fun, held)
	for _, arg := range call.Args {
		w.rule.eval(arg, held)
	}
}

// join walks each branch from st and merges the states of those that
// fall through. exhaustive says one branch always runs, so st itself
// does not reach the join; when no path does, the join ends the path.
func (w lockFlow) join(st lockState, branches [][]ast.Stmt, exhaustive bool) (lockState, bool) {
	var outs []lockState
	for _, b := range branches {
		if out, term := w.stmts(b, st); !term {
			outs = append(outs, out)
		}
	}
	if !exhaustive {
		outs = append(outs, st)
	}
	if len(outs) == 0 {
		return st, true
	}
	return merge(outs), false
}

// loop walks a loop body once, from the state at loop entry, and hands
// a body that falls through to the rule's loopEnd. The state after the
// loop is the state at entry: lockpair's loop rule holds a body to
// releasing what it acquires.
func (w lockFlow) loop(entry lockState, body []ast.Stmt, post ast.Stmt) {
	out, term := w.stmts(body, entry)
	if !term && post != nil {
		out, term = w.stmt(post, out)
	}
	if !term {
		w.rule.loopEnd(entry.held, out.held)
	}
}

// deferUnlocks marks deferred the locks a deferred call releases:
// either a direct `defer mu.Unlock()` or unlock calls inside a deferred
// function literal.
func (w lockFlow) deferUnlocks(call *ast.CallExpr, st lockState) lockState {
	if expr, op, isMu := mutexOp(w.pass, call); isMu {
		return release(st, expr, op, true)
	}
	lit, isLit := call.Fun.(*ast.FuncLit)
	if !isLit {
		return st
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, isInner := n.(*ast.FuncLit); isInner {
			return false
		}
		if call, isCall := n.(*ast.CallExpr); isCall {
			if expr, op, isMu := mutexOp(w.pass, call); isMu {
				st = release(st, expr, op, true)
			}
		}
		return true
	})
	return st
}

// clauses returns the clause bodies of a switch, type switch or select,
// and whether one clause always runs: a switch with a default clause,
// or a select with any clause (it waits until one can proceed).
func clauses(body *ast.BlockStmt) (bodies [][]ast.Stmt, exhaustive bool) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			bodies = append(bodies, c.Body)
			exhaustive = exhaustive || c.List == nil
		case *ast.CommClause:
			bodies = append(bodies, c.Body)
			exhaustive = true
		}
	}
	return bodies, exhaustive
}

// acquire adds h to the held locks, deferred when a deferred unlock of
// the same receiver and method is pending; that unlock now marks h.
// States are not mutated in place: branches share them.
func acquire(st lockState, h heldLock) lockState {
	var pending []heldLock
	for _, p := range st.pending {
		if p.expr == h.expr && p.op == h.op {
			h.deferred = true
		} else {
			pending = append(pending, p)
		}
	}
	return lockState{held: append(st.held[:len(st.held):len(st.held)], h), pending: pending}
}

// release applies an unlock of expr by unlockOp to every acquisition it
// matches: a deferred unlock marks them deferred, any other removes
// them, leaving the deferred unlock of one it removes pending. Matching
// acquisitions are the same lock reached along different paths
// (re-acquiring a held mutex is lockheld's self-deadlock).
func release(st lockState, expr, unlockOp string, deferred bool) lockState {
	out := lockState{pending: st.pending}
	for _, h := range st.held {
		if h.expr == expr && unlockOf[h.op] == unlockOp {
			if !deferred {
				if h.deferred && !holding(out.pending, h.expr, h.op) {
					out.pending = append(out.pending[:len(out.pending):len(out.pending)], heldLock{expr: h.expr, op: h.op})
				}
				continue
			}
			h.deferred = true
		}
		out.held = append(out.held, h)
	}
	return out
}

// merge joins the states reaching a join. The held locks are their
// union in first-seen order, an acquisition deferred after the join
// only if it was deferred on every path that holds it; a deferred
// unlock is pending after the join only if it was on every path.
func merge(states []lockState) lockState {
	var out lockState
	for _, st := range states {
	next:
		for _, h := range st.held {
			for i := range out.held {
				if out.held[i].pos == h.pos {
					out.held[i].deferred = out.held[i].deferred && h.deferred
					continue next
				}
			}
			out.held = append(out.held, h)
		}
	}
	for _, p := range states[0].pending {
		onEvery := true
		for _, st := range states[1:] {
			onEvery = onEvery && holding(st.pending, p.expr, p.op)
		}
		if onEvery {
			out.pending = append(out.pending, p)
		}
	}
	return out
}

// holding reports whether held has an acquisition of expr, by op when
// op is not empty.
func holding(held []heldLock, expr, op string) bool {
	for _, h := range held {
		if h.expr == expr && (op == "" || h.op == op) {
			return true
		}
	}
	return false
}

// mutexOp classifies call as a sync.Mutex/RWMutex lock-state method
// call, returning the receiver expression and the method name.
func mutexOp(pass *Pass, call *ast.CallExpr) (expr, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	t := recv.Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}
