package analysis

import "go/ast"

// CheckpointLoop rejects Ctx.Checkpoint calls whose error is discarded:
// an unobserved poll stops nothing. Loops need no poll of their own to
// stay cancellable — in an aborted run every Ctx.Barrier ends its thread
// (exec.Sync) — so Checkpoint is only for long barrier-free loops, and
// there its result must stop the kernel.
//
// Methods declared on a platform Ctx implementation are exempt: they
// are the machinery the rule is written against, not kernel code.
var CheckpointLoop = &Checker{
	Name: "checkpointloop",
	Doc:  "the error of Ctx.Checkpoint must be observed",
	Run:  runCheckpointLoop,
}

func runCheckpointLoop(pass *Pass) {
	e := resolveExec(pass.Pkg.Types)
	if e == nil {
		return
	}
	info := pass.Pkg.Info
	discarded := func(x ast.Expr) {
		if call, ok := x.(*ast.CallExpr); ok && e.isCtxCall(info, call, "Checkpoint") {
			pass.Reportf(call.Pos(), "result of Ctx.Checkpoint is ignored; the poll must stop the kernel on a non-nil error")
		}
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
			switch s := n.(type) {
			case *ast.ExprStmt:
				discarded(s.X)
			case *ast.AssignStmt:
				if len(s.Lhs) == 1 && len(s.Rhs) == 1 && isBlank(s.Lhs[0]) {
					discarded(s.Rhs[0])
				}
			}
			return true
		})
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
