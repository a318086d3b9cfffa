package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// annotationMethods are the Ctx methods whose call sequence is
// sim-visible: the simulator charges time and energy per call, so the
// order they are issued in must be deterministic.
var annotationMethods = map[string]bool{
	"Load": true, "Store": true, "LoadSpan": true, "StoreSpan": true,
	"AtomicLoad": true, "AtomicStore": true, "AtomicRMW": true,
	"LoadGather": true, "AtomicLoadSweep": true, "LoadSweep": true,
	"Compute": true, "Active": true,
	"Lock": true, "Unlock": true, "Barrier": true,
}

// SimDeterminism enforces determinism inside the sim-visible packages
// (Config.SimVisible): no wall-clock reads (time.Now/Since/Until), no
// math/rand, and no ranging over a map when the loop body issues
// annotations — Go randomizes map iteration order, so such a loop feeds
// a different annotation sequence to the simulator on every run.
var SimDeterminism = &Checker{
	Name: "simdeterminism",
	Doc:  "sim-visible code must not read wall clocks, use math/rand, or feed annotations from map iteration",
	Run:  runSimDeterminism,
}

func runSimDeterminism(pass *Pass) {
	visible := false
	for _, p := range pass.Config.SimVisible {
		if pass.Pkg.Path == p {
			visible = true
			break
		}
	}
	if !visible {
		return
	}
	info := pass.Pkg.Info
	e := resolveExec(pass.Pkg.Types)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ImportSpec:
				if path, err := strconv.Unquote(x.Path.Value); err == nil {
					if path == "math/rand" || path == "math/rand/v2" {
						pass.Reportf(x.Pos(), "%s imported in sim-visible package %s; randomness breaks run-to-run determinism", path, pass.Pkg.Path)
					}
				}
			case *ast.CallExpr:
				if pkg, name := qualifiedCall(info, x); pkg == "time" && (name == "Now" || name == "Since" || name == "Until") {
					pass.Reportf(x.Pos(), "time.%s in sim-visible package %s; wall-clock reads break run-to-run determinism", name, pass.Pkg.Path)
				}
			case *ast.RangeStmt:
				if e == nil {
					return true
				}
				tv, ok := info.Types[x.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				feeds := ""
				ast.Inspect(x.Body, func(m ast.Node) bool {
					if feeds != "" {
						return false
					}
					if call, ok := m.(*ast.CallExpr); ok {
						if name, ok := e.ctxMethod(info, call); ok && annotationMethods[name] {
							feeds = name
						}
					}
					return true
				})
				if feeds != "" {
					pass.Reportf(x.Pos(), "map iteration order is randomized but the loop body issues Ctx.%s annotations; iterate a deterministically ordered slice instead", feeds)
				}
			}
			return true
		})
	}
}

// qualifiedCall resolves a pkg.Func call to its package path and
// function name, or returns empty strings.
func qualifiedCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
