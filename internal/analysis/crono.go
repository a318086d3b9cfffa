package analysis

import (
	"go/ast"
	"go/types"
)

// execPath is the import path of the package defining the kernel
// execution contract the checkers enforce.
const execPath = "crono/internal/exec"

// execTypes resolves the exec package's contract types inside one
// type-checked package. It is nil when the package does not (even
// transitively) import exec — in which case no checker has anything to
// say about it.
type execTypes struct {
	// thread is the named struct exec.Ctx points to: the concrete
	// per-thread handle kernels annotate through.
	thread *types.Named
	// hooks are the interfaces a platform implements behind a Thread
	// (exec.Model and exec.Sync). Between them they carry the contract's
	// whole method set, so platform-internal calls match by name too.
	hooks []*types.Interface
	// barrier and lock are the named opaque handle types.
	barrier types.Type
	lock    types.Type
	// region is the named exec.Region struct type.
	region types.Type
}

// resolveExec finds exec's contract types through pkg's import graph.
func resolveExec(pkg *types.Package) *execTypes {
	ep := findImport(pkg, execPath, map[*types.Package]bool{})
	if ep == nil {
		return nil
	}
	e := &execTypes{}
	if o := ep.Scope().Lookup("Ctx"); o != nil {
		if ptr, ok := types.Unalias(o.Type()).(*types.Pointer); ok {
			e.thread, _ = types.Unalias(ptr.Elem()).(*types.Named)
		}
	}
	for _, name := range []string{"Model", "Sync"} {
		if o := ep.Scope().Lookup(name); o != nil {
			if iface, ok := o.Type().Underlying().(*types.Interface); ok {
				e.hooks = append(e.hooks, iface)
			}
		}
	}
	if o := ep.Scope().Lookup("Barrier"); o != nil {
		e.barrier = o.Type()
	}
	if o := ep.Scope().Lookup("Lock"); o != nil {
		e.lock = o.Type()
	}
	if o := ep.Scope().Lookup("Region"); o != nil {
		e.region = o.Type()
	}
	if e.thread == nil || len(e.hooks) != 2 {
		return nil
	}
	return e
}

// isCtx reports whether t is the kernel-facing handle (exec.Thread or a
// pointer to it) or a platform type standing behind one: anything that
// implements exec.Model or exec.Sync.
func (e *execTypes) isCtx(t types.Type) bool {
	t = types.Unalias(t)
	elem := t
	if ptr, ok := t.(*types.Pointer); ok {
		elem = types.Unalias(ptr.Elem())
	}
	if types.Identical(elem, e.thread) {
		return true
	}
	for _, h := range e.hooks {
		if types.Implements(t, h) || types.Implements(types.NewPointer(t), h) {
			return true
		}
	}
	return false
}

func findImport(pkg *types.Package, path string, seen map[*types.Package]bool) *types.Package {
	if pkg == nil || seen[pkg] {
		return nil
	}
	seen[pkg] = true
	if pkg.Path() == path {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if found := findImport(imp, path, seen); found != nil {
			return found
		}
	}
	return nil
}

// ctxMethod reports whether call is a method call on an exec.Ctx or on a
// value whose static type implements one of the platform hooks behind
// it, returning the method name. Both match, so the invariants hold in
// kernels and in platform-internal code alike.
func (e *execTypes) ctxMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	if e.isCtx(selection.Recv()) {
		return sel.Sel.Name, true
	}
	return "", false
}

// isCtxCall reports whether call invokes the named Ctx method.
func (e *execTypes) isCtxCall(info *types.Info, call *ast.CallExpr, name string) bool {
	got, ok := e.ctxMethod(info, call)
	return ok && got == name
}

// passesBarrier reports whether call receives an argument of the opaque
// exec.Barrier handle type — the signature of barrier-releasing helpers.
func (e *execTypes) passesBarrier(info *types.Info, call *ast.CallExpr) bool {
	if e.barrier == nil {
		return false
	}
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && types.Identical(tv.Type, e.barrier) {
			return true
		}
	}
	return false
}

// barrierBearing reports whether call synchronizes on a barrier: either
// Ctx.Barrier itself or a helper taking an exec.Barrier handle.
func (e *execTypes) barrierBearing(info *types.Info, call *ast.CallExpr) bool {
	return e.isCtxCall(info, call, "Barrier") || e.passesBarrier(info, call)
}

// funcInfo is one analyzable function body: a declaration or a literal.
type funcInfo struct {
	// name describes the function for diagnostics.
	name string
	// node is the enclosing *ast.FuncDecl or *ast.FuncLit.
	node ast.Node
	// body is the statement block.
	body *ast.BlockStmt
	// recvImplementsCtx marks methods declared on exec.Thread or on a
	// platform's Model/Sync implementation; checkers that police
	// kernel-side usage skip those, since they are the machinery being
	// called.
	recvImplementsCtx bool
}

// functions collects every function body of the package: declarations
// and function literals, each reported once.
func functions(pkg *Package, e *execTypes) []funcInfo {
	var out []funcInfo
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				fi := funcInfo{name: fn.Name.Name, node: fn, body: fn.Body}
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					if tv, ok := pkg.Info.Types[fn.Recv.List[0].Type]; ok && e.isCtx(tv.Type) {
						fi.recvImplementsCtx = true
					}
				}
				out = append(out, fi)
			case *ast.FuncLit:
				out = append(out, funcInfo{name: "func literal", node: fn, body: fn.Body})
			}
			return true
		})
	}
	return out
}

// walkShallow traverses the statements and expressions of body in
// source order without descending into nested function literals, so
// per-function flow facts stay scoped to one body. fn may return false
// to prune the subtree under a node.
func walkShallow(body ast.Node, fn func(ast.Node) bool) {
	first := true
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if !first {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
		}
		first = false
		return fn(n)
	})
}
