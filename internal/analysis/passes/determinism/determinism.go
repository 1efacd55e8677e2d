// Package determinism machine-checks the simulator's bit-identical-output
// invariant: the same seed and configuration must produce the same bytes in
// every artifact regardless of wall-clock, scheduler, or map-iteration
// accidents.
//
// Within the scoped packages (sim, obfus, palermo, backend, bus, memctl,
// pcm, exp, metrics, trace, leakage, stats, campaign, system, workload) the
// analyzer reports:
//
//   - time.Now / time.Since outside functions annotated //obfus:wallclock.
//     Wall time may feed throughput gauges, never simulated state, and the
//     annotation is the audited list of such sites.
//   - Use of math/rand's global source (rand.Intn and friends). All model
//     randomness must flow from an explicitly seeded *rand.Rand, so
//     rand.New / rand.NewSource are permitted.
//   - go statements anywhere but the exp worker pool, the one place the
//     model is allowed to fan out (over independent, separately seeded
//     runs). Other sites need an audited //lint:allow suppression.
//   - Raw channel operations (send, receive, range-over-channel) in the
//     model packages. Goroutine channels order delivery by scheduler timing;
//     model interactions must instead be timestamped events on the
//     simulation engine. The orchestration layers (exp, campaign) coordinate
//     OS-level work and are exempt.
//   - Map iteration whose effect depends on iteration order. Keyed writes,
//     loop-local state, and commutative integer accumulation are
//     order-insensitive and allowed; appending to an outer slice is allowed
//     only when a total-order sort (sort.Strings/Ints/Float64s, slices.Sort)
//     follows in the same function — sort.Slice and sort.SliceStable do NOT
//     qualify, because a partial comparator preserves map-order among ties
//     (exactly the bug class that once leaked into the Chrome trace export).
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"obfusmem/internal/analysis/annot"
	"obfusmem/internal/analysis/framework"
)

// Analyzer is the determinism pass.
var Analyzer = &framework.Analyzer{
	Name: "determinism",
	Doc:  "forbids wall-clock reads, global randomness, stray goroutines, and order-dependent map iteration in the simulation packages",
	Run:  run,
}

// scoped lists the leaf package names (under internal/) the analyzer
// applies to.
var scoped = map[string]bool{
	"sim": true, "obfus": true, "palermo": true, "backend": true,
	"bus": true, "memctl": true, "pcm": true, "exp": true,
	"metrics": true, "trace": true, "leakage": true, "stats": true,
	"campaign": true, "system": true, "workload": true,
}

// inScope reports whether the import path is .../internal/<scoped leaf>.
func inScope(path string) (leaf string, ok bool) {
	parts := strings.Split(path, "/")
	if len(parts) < 2 || parts[len(parts)-2] != "internal" {
		return "", false
	}
	leaf = parts[len(parts)-1]
	return leaf, scoped[leaf]
}

// randConstructors are the math/rand package-level functions that build an
// explicitly seeded generator rather than consuming the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// chanExempt lists the scoped leaves where raw channel operations are
// allowed: the orchestration layers that fan independent, separately seeded
// runs out over OS threads. Everything else is model code, where
// interaction must be a timestamped engine event.
var chanExempt = map[string]bool{"exp": true, "campaign": true}

func run(pass *framework.Pass) error {
	leaf, ok := inScope(pass.Pkg.Path())
	if !ok {
		return nil
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			if isFunc && fn.Body == nil {
				continue
			}
			wallclock := isFunc && pass.Annot.FuncHas(fn, annot.Wallclock)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, n, wallclock)
				case *ast.GoStmt:
					if leaf != "exp" {
						pass.Reportf(n.Pos(), "goroutine outside the exp worker pool: concurrent model state breaks run-to-run determinism")
					}
				case *ast.SendStmt:
					if !chanExempt[leaf] {
						pass.Reportf(n.Pos(), "raw channel send in model code: delivery order follows scheduler timing; schedule a timestamped event through the engine instead")
					}
				case *ast.UnaryExpr:
					if n.Op == token.ARROW && !chanExempt[leaf] {
						pass.Reportf(n.Pos(), "raw channel receive in model code: arrival order follows scheduler timing; consume timestamped events through the engine instead")
					}
				case *ast.RangeStmt:
					if isChannelRange(pass, n) {
						if !chanExempt[leaf] {
							pass.Reportf(n.Pos(), "range over a channel in model code: arrival order follows scheduler timing; consume timestamped events through the engine instead")
						}
						return true
					}
					checkRange(pass, enclosingBody(fn), n)
				}
				return true
			})
		}
	}
	return nil
}

// enclosingBody returns fn's body, or nil for non-function declarations.
func enclosingBody(fn *ast.FuncDecl) *ast.BlockStmt {
	if fn == nil {
		return nil
	}
	return fn.Body
}

// checkCall flags wall-clock reads and global math/rand use.
func checkCall(pass *framework.Pass, call *ast.CallExpr, wallclock bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if !wallclock && (fn.Name() == "Now" || fn.Name() == "Since") {
			pass.Reportf(call.Pos(), "time.%s outside an //obfus:wallclock function: wall time must never reach simulated state", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() == nil && !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "global math/rand source (rand.%s): draw from an explicitly seeded *rand.Rand instead", fn.Name())
		}
	}
}

// isChannelRange reports whether rng iterates over a channel.
func isChannelRange(pass *framework.Pass, rng *ast.RangeStmt) bool {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// calleeFunc resolves the static callee of a call, or nil for dynamic calls,
// builtins, and conversions.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// checkRange classifies the body of a map-range statement. body is the
// enclosing function body, used to look for a later total-order sort of any
// slice the loop appends to.
func checkRange(pass *framework.Pass, body *ast.BlockStmt, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}

	local := func(e ast.Expr) bool { return declaredWithin(pass, e, rng) }

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal inside map-range: its effects cannot be proven order-insensitive")
			return false
		case *ast.RangeStmt:
			// A nested range's leaves are still classified against this
			// loop's rules (they run in map-iteration order); whether the
			// nested range is itself a map-range is checked separately by
			// the top-level walk.
			return true
		case *ast.AssignStmt:
			checkRangeAssign(pass, body, rng, n, local)
			return false // leaves classified; don't re-visit as idents
		case *ast.IncDecStmt:
			if !local(n.X) && !isIndexed(n.X) && !integerTyped(pass, n.X) {
				pass.Reportf(n.Pos(), "order-dependent update of %s in map-range: only keyed writes and integer accumulation are order-insensitive", exprString(n.X))
			}
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						return false
					}
				}
				pass.Reportf(n.Pos(), "call with side effects inside map-range: effects ordered by map iteration are nondeterministic")
				return false
			}
		case *ast.ReturnStmt:
			pass.Reportf(n.Pos(), "return inside map-range selects an iteration-order-dependent element")
			return false
		}
		return true
	})
}

// checkRangeAssign classifies one assignment inside a map-range body.
func checkRangeAssign(pass *framework.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt, local func(ast.Expr) bool) {
	for i, lhs := range as.Lhs {
		if isBlank(lhs) || local(lhs) || isIndexed(lhs) || as.Tok == token.DEFINE {
			continue // keyed or loop-local writes carry the key; order-free
		}
		// x = append(x, ...) on an outer slice: allowed iff a total-order
		// sort of x follows the loop in the same function.
		if i < len(as.Rhs) {
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isAppendTo(pass, call, lhs) {
				if sortedAfter(pass, body, lhs, rng.End()) {
					continue
				}
				pass.Reportf(as.Pos(), "map keys accumulate into %s with no total-order sort after the loop (sort.Slice does not qualify: a partial comparator keeps map order among ties)", exprString(lhs))
				continue
			}
		}
		// Commutative integer accumulation is order-insensitive.
		switch as.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			if integerTyped(pass, lhs) {
				continue
			}
		}
		pass.Reportf(as.Pos(), "order-dependent write to %s in map-range: the final value depends on map iteration order", exprString(lhs))
	}
}

// sortedAfter reports whether a total-order sort of the slice named by lhs
// appears in body after pos. Only element-ordered sorts qualify:
// sort.Strings, sort.Ints, sort.Float64s, and slices.Sort.
func sortedAfter(pass *framework.Pass, body *ast.BlockStmt, lhs ast.Expr, pos token.Pos) bool {
	obj := exprObject(pass, lhs)
	if body == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 || found {
			return !found
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		totalOrder := (fn.Pkg().Path() == "sort" && (fn.Name() == "Strings" || fn.Name() == "Ints" || fn.Name() == "Float64s")) ||
			(fn.Pkg().Path() == "slices" && fn.Name() == "Sort")
		if totalOrder && exprObject(pass, call.Args[0]) == obj {
			found = true
		}
		return !found
	})
	return found
}

// declaredWithin reports whether e names a variable declared inside the
// range statement (the key/value vars or a body-local).
func declaredWithin(pass *framework.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	obj := exprObject(pass, e)
	return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

func exprObject(pass *framework.Pass, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[id]
	}
	return nil
}

func isIndexed(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.IndexExpr)
	return ok
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

func integerTyped(pass *framework.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isAppendTo reports whether call is append(target, ...) for the same
// variable as target.
func isAppendTo(pass *framework.Pass, call *ast.CallExpr, target ast.Expr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tObj := exprObject(pass, target)
	return tObj != nil && exprObject(pass, call.Args[0]) == tObj
}

// exprString renders a short name for diagnostics.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expression"
}
