package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
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
// One held-lock flow (lockflow.go), shared with lockpair, walks each
// function path by path: a lock is held from its Lock()/RLock()
// statement until the matching unlock on the same receiver expression,
// and a `defer Unlock()` keeps it held to the end of the function. The
// arguments of a defer or go statement are evaluated on the spot, so
// they are checked under the locks held there; the deferred or spawned
// call itself is not. Function literals are analyzed as their own
// functions (a goroutine body does not inherit the spawner's locks),
// and calls into other functions are not followed — a helper that
// blocks internally needs its own locks, or a review.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "flag blocking work (Loader fills, net/io writes, time.Sleep, channel ops, nested locks) while a mutex is held",
	Run: func(pass *Pass) {
		walkLockFlow(pass, heldRule{pass})
	},
}

// heldRule reports blocking work and nested acquisitions under any held
// lock; the last one acquired names the holder in messages.
type heldRule struct {
	pass *Pass
}

func (w heldRule) acquire(call *ast.CallExpr, expr, op string, held []heldLock) {
	if len(held) == 0 {
		return
	}
	if holding(held, expr, "") {
		w.pass.Reportf(call.Pos(), "%s.%s while %s is already held: guaranteed self-deadlock", expr, op, expr)
	} else {
		w.pass.Reportf(call.Pos(), "acquiring %s while %s is held: lock-ordering hazard (release one lock before taking another)", expr, held[len(held)-1].expr)
	}
}

// eval inspects one statement or expression for blocking operations.
// Function literals are not descended: their bodies run later, as their
// own functions.
func (w heldRule) eval(n ast.Node, held []heldLock) {
	if len(held) == 0 || n == nil {
		return
	}
	holder := held[len(held)-1].expr
	switch s := n.(type) {
	case *ast.SendStmt:
		w.pass.Reportf(s.Pos(), "channel send while %s is held; a full channel stalls the lock domain", holder)
	case *ast.RangeStmt:
		if tv, isTyped := w.pass.Info.Types[s.X]; isTyped && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.pass.Reportf(s.Pos(), "range over channel while %s is held blocks the lock domain on the sender", holder)
			}
		}
		n = s.X // the body is walked statement by statement
	case *ast.SelectStmt:
		// The comm clauses are what make a select blocking: they are
		// not reported again, and with a default none of them waits.
		if !hasDefaultClause(s.Body.List) {
			w.pass.Reportf(s.Pos(), "select without default while %s is held blocks the lock domain", holder)
		}
		return
	}
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

func (heldRule) exit([]heldLock, token.Pos) {}

func (heldRule) loopEnd(_, _ []heldLock) {}

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
func (w heldRule) blockingCall(call *ast.CallExpr) (string, bool) {
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

// hasPrefixAny reports whether s starts with any of the prefixes.
func hasPrefixAny(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
