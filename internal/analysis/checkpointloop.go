package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CheckpointLoop enforces the cancellation-liveness invariant: a loop
// that synchronizes on Ctx.Barrier (directly or through a helper taking
// an exec.Barrier handle) must poll Ctx.Checkpoint somewhere in its
// body, or a canceled run can spin in it forever once the platform has
// released the barrier waiters. It also rejects Checkpoint calls whose
// error is discarded — an unobserved poll provides no liveness.
//
// The poll may live in the barrier-taking helper itself (the worklist's
// endRound): a call to a same-package helper whose body polls
// Ctx.Checkpoint counts as the loop's poll, provided the loop exits on
// the helper's result — only the result tells the loop that the helper
// saw the cancellation. "Exits on" is approximated one step deep: the
// call, or a variable assigned from it, appears in the condition of an
// if or switch that contains a return, break or goto.
//
// Methods declared on a platform Ctx implementation are exempt: they
// are the machinery the invariant is written against, not kernel code.
var CheckpointLoop = &Checker{
	Name: "checkpointloop",
	Doc:  "barrier-bearing loops must poll Ctx.Checkpoint and observe its error",
	Run:  runCheckpointLoop,
}

func runCheckpointLoop(pass *Pass) {
	e := resolveExec(pass.Pkg.Types)
	if e == nil {
		return
	}
	info := pass.Pkg.Info
	// Declarations by object, to look inside same-package helpers.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[info.Defs[fd.Name]] = fd
			}
		}
	}
	// pollsInside reports whether call invokes a same-package function
	// whose body polls Ctx.Checkpoint.
	pollsInside := func(call *ast.CallExpr) bool {
		var id *ast.Ident
		switch f := call.Fun.(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		default:
			return false
		}
		fd := decls[info.Uses[id]]
		if fd == nil {
			return false
		}
		polls := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && e.isCtxCall(info, c, "Checkpoint") {
				polls = true
			}
			return !polls
		})
		return polls
	}
	for _, fn := range functions(pass.Pkg, e) {
		if fn.recvImplementsCtx {
			continue
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			// Function literals get their own functions() entry.
			if _, ok := n.(*ast.FuncLit); ok && n != fn.node {
				return false
			}
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			case *ast.ExprStmt:
				if call, ok := loop.X.(*ast.CallExpr); ok && e.isCtxCall(info, call, "Checkpoint") {
					pass.Reportf(call.Pos(), "result of Ctx.Checkpoint is ignored; the poll must stop the kernel on a non-nil error")
				}
				return true
			case *ast.AssignStmt:
				if len(loop.Lhs) == 1 && len(loop.Rhs) == 1 && isBlank(loop.Lhs[0]) {
					if call, ok := loop.Rhs[0].(*ast.CallExpr); ok && e.isCtxCall(info, call, "Checkpoint") {
						pass.Reportf(call.Pos(), "result of Ctx.Checkpoint is ignored; the poll must stop the kernel on a non-nil error")
					}
				}
				return true
			default:
				return true
			}
			hasBarrier, hasCheckpoint := false, false
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if e.barrierBearing(info, call) {
					hasBarrier = true
				}
				if e.isCtxCall(info, call, "Checkpoint") {
					hasCheckpoint = true
				}
				if e.passesBarrier(info, call) && pollsInside(call) && exitsOn(info, body, call) {
					hasCheckpoint = true
				}
				return true
			})
			if hasBarrier && !hasCheckpoint {
				pass.Reportf(n.Pos(), "loop synchronizes on Ctx.Barrier but never polls Ctx.Checkpoint; a canceled run cannot unwind it")
			}
			return true
		})
	}
}

// exitsOn reports whether body leaves the loop on call's result: some if
// or switch in body both contains a return, break or goto and tests the
// call itself or a variable assigned from it.
func exitsOn(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) bool {
	results := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if id, ok := assign.Lhs[i].(*ast.Ident); ok && rhs == ast.Expr(call) {
				if obj := info.ObjectOf(id); obj != nil {
					results[obj] = true
				}
			}
		}
		return true
	})
	tests := func(cond ast.Expr) bool {
		if cond == nil {
			return false
		}
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			if n == ast.Node(call) {
				found = true
			} else if id, ok := n.(*ast.Ident); ok && results[info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	exits := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.ReturnStmt:
				found = true
			case *ast.BranchStmt:
				found = found || s.Tok == token.BREAK || s.Tok == token.GOTO
			}
			return !found
		})
		return found
	}
	observed := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			observed = observed || (tests(s.Cond) && exits(s))
		case *ast.SwitchStmt:
			tested := tests(s.Tag)
			for _, c := range s.Body.List {
				for _, x := range c.(*ast.CaseClause).List {
					tested = tested || tests(x)
				}
			}
			observed = observed || (tested && exits(s.Body))
		}
		return !observed
	})
	return observed
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
