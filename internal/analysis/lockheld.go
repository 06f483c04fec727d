package analysis

import (
	"go/ast"
	"go/types"
)

// LockHeld flags blocking or out-of-shard work performed while a
// sync.Mutex or sync.RWMutex is provably held. A shard mutex guards a
// few in-memory structures; holding it across a backing-store fetch, a
// socket write, a sleep, or a channel operation turns one slow peer
// into a stalled shard (the classic "cache misses overload the DB"
// failure), and acquiring a second lock while one is held is the
// lock-ordering hazard that deadlocks multi-shard fan-out.
//
// Flagged while a lock is held:
//
//   - calling a value or interface method of a type named "Loader"
//     (the live cache's backing-store hook);
//   - package-level calls into net / net/http, the io copy/read
//     helpers, and blocking-shaped methods (Read*/Write*/Flush/Close/
//     Accept/Serve/Shutdown/Dial/Do) on net/io/bufio/os/net/http types;
//   - fmt.Print*/Fprint* (stream writes) — when the lock exists solely
//     to serialize that stream, suppress with a reason;
//   - time.Sleep and sync.WaitGroup.Wait;
//   - channel sends, receives, range-over-channel, and select
//     statements without a default case;
//   - acquiring any mutex (re-acquiring the held one is an immediate
//     deadlock; a different one is an ordering hazard).
//
// The analysis is per-function and syntactic: a lock is "held" from a
// Lock()/RLock() statement until the matching Unlock()/RUnlock()
// statement on the same receiver expression; `defer Unlock()` keeps it
// held to the end of the function. Function literals are analyzed as
// their own functions (a goroutine body does not inherit the spawner's
// locks), and calls into other functions are not followed — a helper
// that blocks internally needs its own locks, or a review.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "flag blocking work (Loader fills, net/io writes, time.Sleep, channel ops, nested locks) while a mutex is held",
	Run: func(pass *Pass) {
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
					w := &heldWalker{pass: pass}
					w.stmts(body.List, nil)
				}
				return true // nested FuncLits are visited (and walked) separately
			})
		}
	},
}

// heldWalker tracks which mutex expressions are held across a
// statement walk of one function body.
type heldWalker struct {
	pass *Pass
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

// stmts walks a statement list with the held-lock set (in acquisition
// order) and returns the set at fall-through.
func (w *heldWalker) stmts(list []ast.Stmt, held []string) []string {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// stmt processes one statement, reporting blocking work if any lock is
// held, and returns the updated held set.
func (w *heldWalker) stmt(s ast.Stmt, held []string) []string {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			if expr, op, isMu := mutexOp(w.pass, call); isMu {
				switch op {
				case "Lock", "RLock":
					if len(held) > 0 {
						if contains(held, expr) {
							w.pass.Reportf(call.Pos(), "%s.%s while %s is already held: guaranteed self-deadlock", expr, op, expr)
						} else {
							w.pass.Reportf(call.Pos(), "acquiring %s while %s is held: lock-ordering hazard (release one lock before taking another)", expr, held[len(held)-1])
						}
					}
					return appendNew(held, expr)
				default: // Unlock, RUnlock
					return remove(held, expr)
				}
			}
		}
		w.checkBlocking(s, held)
		return held
	case *ast.SendStmt:
		if len(held) > 0 {
			w.pass.Reportf(s.Pos(), "channel send while %s is held; a full channel stalls the lock domain", held[len(held)-1])
		}
		w.checkBlocking(s.Chan, held)
		w.checkBlocking(s.Value, held)
		return held
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.ReturnStmt:
		w.checkBlocking(s, held)
		return held
	case *ast.DeferStmt:
		// A deferred Unlock releases at function exit: the lock stays
		// held for the remainder of the walk. Other deferred calls run
		// after this statement's region and are not analyzed here.
		return held
	case *ast.GoStmt:
		// The spawned goroutine does not hold this function's locks;
		// its FuncLit body is walked as its own function.
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.checkBlocking(s.Cond, held)
		var fallthroughs [][]string
		if out, falls := w.branch(s.Body.List, held); falls {
			fallthroughs = append(fallthroughs, out)
		}
		if s.Else != nil {
			if out, falls := w.branch([]ast.Stmt{s.Else}, held); falls {
				fallthroughs = append(fallthroughs, out)
			}
		} else {
			fallthroughs = append(fallthroughs, held)
		}
		return union(fallthroughs)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkBlocking(s.Cond, held)
		}
		out := w.stmts(s.Body.List, cloneHeld(held))
		return union([][]string{held, out})
	case *ast.RangeStmt:
		if len(held) > 0 {
			if tv, isTyped := w.pass.Info.Types[s.X]; isTyped && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.pass.Reportf(s.Pos(), "range over channel while %s is held blocks the lock domain on the sender", held[len(held)-1])
				}
			}
		}
		w.checkBlocking(s.X, held)
		out := w.stmts(s.Body.List, cloneHeld(held))
		return union([][]string{held, out})
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return w.clauses(s, held)
	case *ast.SelectStmt:
		if len(held) > 0 && !hasDefaultClause(s.Body.List) {
			w.pass.Reportf(s.Pos(), "select without default while %s is held blocks the lock domain", held[len(held)-1])
		}
		var fallthroughs [][]string
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			if out, falls := w.branch(comm.Body, held); falls {
				fallthroughs = append(fallthroughs, out)
			}
		}
		if len(fallthroughs) == 0 {
			return held
		}
		return union(fallthroughs)
	default:
		return held
	}
}

// clauses walks the case bodies of a switch or type switch.
func (w *heldWalker) clauses(s ast.Stmt, held []string) []string {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkBlocking(s.Tag, held)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	}
	var fallthroughs [][]string
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if out, falls := w.branch(cc.Body, held); falls {
			fallthroughs = append(fallthroughs, out)
		}
	}
	if !hasDefault {
		fallthroughs = append(fallthroughs, held)
	}
	if len(fallthroughs) == 0 {
		return held
	}
	return union(fallthroughs)
}

// branch walks one branch body and reports whether control can fall
// through to the statement after the enclosing construct.
func (w *heldWalker) branch(list []ast.Stmt, held []string) ([]string, bool) {
	out := w.stmts(list, cloneHeld(held))
	return out, !terminates(list)
}

// terminates reports whether a statement list definitely transfers
// control away (return, panic, break/continue, goto) at its end.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, isCall := last.X.(*ast.CallExpr); isCall {
			if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

// checkBlocking inspects one statement or expression for blocking
// operations, reporting each when locks are held. Function literals
// are not descended: their bodies run later, as their own functions.
func (w *heldWalker) checkBlocking(n ast.Node, held []string) {
	if len(held) == 0 || n == nil {
		return
	}
	holder := held[len(held)-1]
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				w.pass.Reportf(n.Pos(), "channel receive while %s is held blocks the lock domain on the sender", holder)
			}
		case *ast.CallExpr:
			if _, _, isMu := mutexOp(w.pass, n); isMu {
				return true // handled by the statement walk
			}
			if desc, blocking := w.blockingCall(n); blocking {
				w.pass.Reportf(n.Pos(), "%s while %s is held; move the blocking work outside the critical section", desc, holder)
			}
		}
		return true
	})
}

// ioPackages are the packages whose blocking-shaped calls are flagged
// under a held lock. bytes/strings buffers are deliberately absent:
// in-memory writes do not block.
var ioPackages = map[string]bool{
	"net":      true,
	"net/http": true,
	"io":       true,
	"bufio":    true,
	"os":       true,
}

// ioFuncs are package-level io helpers that read or write streams.
var ioFuncs = map[string]bool{
	"Copy":        true,
	"CopyN":       true,
	"CopyBuffer":  true,
	"ReadAll":     true,
	"ReadAtLeast": true,
	"ReadFull":    true,
	"WriteString": true,
}

// osFuncs are package-level os calls that touch the filesystem.
var osFuncs = map[string]bool{
	"ReadFile":  true,
	"WriteFile": true,
	"Open":      true,
	"OpenFile":  true,
	"Create":    true,
	"Rename":    true,
	"Remove":    true,
	"RemoveAll": true,
}

// blockingCall classifies a call as blocking work that must not run
// under a shard lock.
func (w *heldWalker) blockingCall(call *ast.CallExpr) (string, bool) {
	// A call through a value or field whose type is named "Loader" is a
	// backing-store fetch, whatever package defines it.
	if tv, isTyped := w.pass.Info.Types[call.Fun]; isTyped && tv.Type != nil {
		if named := namedOf(tv.Type); named != nil && named.Obj().Name() == "Loader" {
			if _, isSig := named.Underlying().(*types.Signature); isSig {
				return "Loader fill (backing-store fetch)", true
			}
		}
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	// Method call on an interface named "Loader".
	if tv, isTyped := w.pass.Info.Types[sel.X]; isTyped && tv.Type != nil {
		if named := namedOf(tv.Type); named != nil && named.Obj().Name() == "Loader" {
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				return "Loader." + sel.Sel.Name + " (backing-store fetch)", true
			}
		}
	}
	fn, isFn := w.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	sig := fn.Type().(*types.Signature)
	switch pkg {
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if name == "Wait" {
			return "sync WaitGroup/Cond Wait", true
		}
	case "fmt":
		if hasPrefixAny(name, "Print", "Fprint") {
			return "fmt." + name + " (stream write)", true
		}
	}
	if !ioPackages[pkg] {
		return "", false
	}
	if sig.Recv() == nil {
		switch pkg {
		case "net", "net/http":
			return pkg + "." + name, true
		case "io":
			if ioFuncs[name] {
				return "io." + name, true
			}
		case "os":
			if osFuncs[name] {
				return "os." + name, true
			}
		}
		return "", false
	}
	if blockingMethodName(name) {
		return pkg + " " + name + " method", true
	}
	return "", false
}

// blockingMethodName reports whether a method name on a net/io-family
// type is read/write/connection-lifecycle shaped.
func blockingMethodName(name string) bool {
	if hasPrefixAny(name, "Read", "Write", "Accept", "Serve", "Dial") {
		return true
	}
	switch name {
	case "Flush", "Close", "Shutdown", "Do", "Sync":
		return true
	}
	return false
}

// namedOf unwraps pointers to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return nil
	}
	return named
}

// hasDefaultClause reports whether a select body has a default case.
func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		if comm, isComm := c.(*ast.CommClause); isComm && comm.Comm == nil {
			return true
		}
	}
	return false
}

// contains reports whether held includes expr.
func contains(held []string, expr string) bool {
	for _, h := range held {
		if h == expr {
			return true
		}
	}
	return false
}

// appendNew returns held plus expr (copy-on-write: branches share
// prefixes).
func appendNew(held []string, expr string) []string {
	out := make([]string, 0, len(held)+1)
	out = append(out, held...)
	return append(out, expr)
}

// remove returns held without the most recent occurrence of expr.
func remove(held []string, expr string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == expr {
			out := make([]string, 0, len(held)-1)
			out = append(out, held[:i]...)
			return append(out, held[i+1:]...)
		}
	}
	return held
}

// cloneHeld copies the held set for branch-local mutation.
func cloneHeld(held []string) []string {
	return append([]string(nil), held...)
}

// union merges fall-through branch states in first-seen order: a lock
// held on any incoming path is treated as held.
func union(states [][]string) []string {
	var out []string
	for _, st := range states {
		for _, e := range st {
			if !contains(out, e) {
				out = append(out, e)
			}
		}
	}
	return out
}
