package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// addrMethods are the Ctx methods whose first argument is a logical
// address.
var addrMethods = map[string]bool{
	"Load": true, "Store": true, "LoadSpan": true, "StoreSpan": true,
	"AtomicLoad": true, "AtomicStore": true, "AtomicRMW": true,
}

// RawAddr enforces annotated addressing: the address handed to
// Ctx.Load/Store/LoadSpan/StoreSpan and the atomic annotations must be
// derived from a Region (Region.At, Region.Base plus offsets the
// platform placed), never a hard-coded integer. A compile-time-constant
// address bypasses the platform's placement and lands on whatever
// region happens to be mapped there — silently corrupting the
// simulator's cache and home tile attribution, and leaving race reports
// unable to name the datum through the region registry.
//
// The check flags any address argument whose value the type checker
// folds to an integer constant (literals, conversions of literals and
// named constants alike); addresses flowing out of Region method calls
// or fields are never constant.
var RawAddr = &Checker{
	Name: "rawaddr",
	Doc:  "Ctx.Load/Store/LoadSpan/StoreSpan addresses must come from Region.At, not integer constants",
	Run:  runRawAddr,
}

func runRawAddr(pass *Pass) {
	e := resolveExec(pass.Pkg.Types)
	if e == nil {
		return
	}
	info := pass.Pkg.Info
	for _, fn := range functions(pass.Pkg, e) {
		if fn.recvImplementsCtx {
			continue
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name, ok := e.ctxMethod(info, call)
			if !ok || !addrMethods[name] {
				return true
			}
			arg := call.Args[0]
			if tv, ok := info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				pass.Reportf(arg.Pos(), "constant address %s passed to Ctx.%s; derive addresses from a named region (Platform.Alloc + Region.At) so the platform controls placement and reports can name the datum", types.ExprString(arg), name)
			}
			return true
		})
	}
}
