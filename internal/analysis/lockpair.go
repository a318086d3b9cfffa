package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockPair enforces the Ctx.Lock/Ctx.Unlock pairing invariant: every
// lock a function acquires must be released on every path out of it.
//
// The analysis is a flow approximation, not a full CFG: statements are
// scanned in source order per function body (function literals are
// separate bodies), locks are keyed by the printed form of the handle
// expression, `defer ctx.Unlock(l)` releases immediately, and a
// `return` reached while a key is still held — or a key still held when
// the body ends — is reported. The approximation accepts the repo's
// branch-balanced unlock idioms (every branch unlocks before returning
// or falling through) and flags the classic leak shapes: an early
// return between Lock and Unlock, and a Lock with no Unlock at all.
var LockPair = &Checker{
	Name: "lockpair",
	Doc:  "Ctx.Lock must have a matching Ctx.Unlock on every path out of the function",
	Run:  runLockPair,
}

func runLockPair(pass *Pass) {
	e := resolveExec(pass.Pkg.Types)
	if e == nil {
		return
	}
	for _, fn := range functions(pass.Pkg, e) {
		// Methods on exec.Thread and on a platform's Model/Sync
		// implementation (the simulator's and the race detector's)
		// acquire and release across method boundaries by design; the
		// invariant targets kernels.
		if fn.recvImplementsCtx {
			continue
		}
		checkLockPair(pass, e, fn)
	}
}

func checkLockPair(pass *Pass, e *execTypes, fn funcInfo) {
	// held maps a lock-handle expression to the positions of its
	// outstanding acquisitions, in acquisition order.
	held := make(map[string][]token.Pos)
	var order []string // deterministic reporting order
	heldCount := 0

	release := func(key string) {
		if n := len(held[key]); n > 0 {
			held[key] = held[key][:n-1]
			heldCount--
		}
	}

	walkShallow(fn.body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.DeferStmt:
			if e.isCtxCall(pass.Pkg.Info, stmt.Call, "Unlock") && len(stmt.Call.Args) == 1 {
				release(types.ExprString(stmt.Call.Args[0]))
				return false // the call itself must not count twice
			}
		case *ast.CallExpr:
			name, ok := e.ctxMethod(pass.Pkg.Info, stmt)
			if !ok || len(stmt.Args) != 1 {
				return true
			}
			key := types.ExprString(stmt.Args[0])
			switch name {
			case "Lock":
				if _, seen := held[key]; !seen {
					order = append(order, key)
				}
				held[key] = append(held[key], stmt.Pos())
				heldCount++
			case "Unlock":
				release(key)
			}
		case *ast.ReturnStmt:
			if heldCount > 0 {
				for _, key := range order {
					if len(held[key]) > 0 {
						pass.Reportf(stmt.Pos(), "return while Ctx.Lock(%s) may still be held", key)
					}
				}
			}
		}
		return true
	})
	// A key still held when the body ends leaks on the fall-through
	// path (or, in a never-returning loop body, on every abort path).
	for _, key := range order {
		for _, pos := range held[key] {
			pass.Reportf(pos, "Ctx.Lock(%s) has no matching Ctx.Unlock on every path out of %s", key, fn.name)
		}
	}
}
