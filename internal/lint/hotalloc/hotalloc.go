// Package hotalloc polices allocation discipline inside functions marked
// `//chc:hotpath` in their doc comment. The paper's measurements live or
// die on the per-access cost of the simulator scan loop and the per-request
// cost of the serve hit path; a stray fmt.Sprintf or interface boxing in
// either one shows up directly as memory-hierarchy noise in the numbers
// the repo exists to reproduce.
//
// Inside a marked function (and any function literal it contains — closures
// returned by a hot constructor run on the hot path too), the analyzer
// flags:
//
//   - calls into package fmt: every fmt call allocates (boxing into ...any
//     at minimum) and formats reflectively;
//   - map iteration (range over a map): hidden iterator state, random
//     order, and no way for the compiler to elide bounds work — hot code
//     should walk a slice;
//   - append to a slice never pre-allocated in the function: growth
//     reallocates and copies; make([]T, 0, n) first;
//   - implicit interface conversions at call arguments, assignments, and
//     returns: boxing a concrete value into an interface (including any
//     and error) usually heap-allocates.
//
// Cold error paths inside hot functions (the "cannot happen" guards) keep
// their fmt.Errorf with a `//chc:allow hotalloc -- reason` line — the
// directive is the documentation that the path is cold.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"memhier/internal/lint"
	"memhier/internal/lint/locks"
)

// Analyzer flags allocation-prone constructs in //chc:hotpath functions.
var Analyzer = &lint.Analyzer{
	Name: "hotalloc",
	Doc: `hotalloc reports allocation-prone constructs — fmt calls, map iteration,
append without preallocation, implicit interface boxing — inside functions
whose doc comment carries the //chc:hotpath marker. Cold paths within a hot
function are justified line-by-line with //chc:allow hotalloc.`,
	Run: run,
}

const marker = "//chc:hotpath"

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !marked(fn.Doc) {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil
}

func marked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// checkBody flags hot-path hazards in body, including nested literals.
func checkBody(pass *lint.Pass, body *ast.BlockStmt) {
	prealloc := preallocated(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, x, prealloc)
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "map iteration on a hot path: random order and per-iteration overhead; keep a slice alongside the map")
				}
			}
		case *ast.AssignStmt:
			checkAssign(pass, x)
		}
		return true
	})
}

// checkCall flags fmt calls, unpreallocated appends, interface-boxing
// arguments, and conversions to interface types.
func checkCall(pass *lint.Pass, call *ast.CallExpr, prealloc map[string]bool) {
	// Type conversion to an interface: any(x), error(e)-style boxing.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if boxes(tv.Type) && len(call.Args) == 1 {
			if atv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && !types.IsInterface(atv.Type) && !isNil(atv) {
				pass.Reportf(call.Pos(), "conversion to %s boxes a concrete value on a hot path", types.TypeString(tv.Type, nil))
			}
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(pass, id, "append") {
		// Builtin append: require the destination to be preallocated
		// somewhere in this function.
		if len(call.Args) > 0 {
			if key, ok := sliceKey(pass, call.Args[0]); ok && !prealloc[key] {
				pass.Reportf(call.Pos(), "append to %s without preallocation on a hot path: growth reallocates and copies; make it with capacity first", key)
			}
		}
		return
	}
	fn := pass.CalleeFunc(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s on a hot path allocates and formats reflectively; use strconv or precomputed strings", fn.Name())
		return
	}
	// Implicit boxing at call arguments: concrete value passed where the
	// parameter is an interface.
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			pt = sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := pt.(*types.Slice); ok && call.Ellipsis == token.NoPos {
				pt = s.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if pt == nil || !boxes(pt) {
			continue
		}
		if atv, ok := pass.TypesInfo.Types[arg]; ok && !types.IsInterface(atv.Type) && !isNil(atv) {
			pass.Reportf(arg.Pos(), "passing concrete %s as interface %s boxes it on a hot path", types.TypeString(atv.Type, nil), types.TypeString(pt, nil))
		}
	}
}

// checkAssign flags assignments that box a concrete value into an
// interface-typed destination.
func checkAssign(pass *lint.Pass, as *ast.AssignStmt) {
	if as.Tok == token.DEFINE || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		ltv, ok := pass.TypesInfo.Types[as.Lhs[i]]
		if !ok || !boxes(ltv.Type) {
			continue
		}
		rtv, ok := pass.TypesInfo.Types[as.Rhs[i]]
		if !ok || types.IsInterface(rtv.Type) || isNil(rtv) {
			continue
		}
		pass.Reportf(as.Rhs[i].Pos(), "assigning concrete %s to interface %s boxes it on a hot path", types.TypeString(rtv.Type, nil), types.TypeString(ltv.Type, nil))
	}
}

// boxes reports whether storing a concrete value as type t can box it: t is
// an interface, or a type parameter an interface type could instantiate. A
// type parameter constrained to a union of non-interface terms (~uint64 |
// ~float64) is always instantiated with a concrete type, so a conversion to
// it never boxes.
func boxes(t types.Type) bool {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return types.IsInterface(t)
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok || iface.IsMethodSet() || iface.NumEmbeddeds() == 0 {
		return true
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		u, ok := iface.EmbeddedType(i).(*types.Union)
		if !ok {
			return true
		}
		for j := 0; j < u.Len(); j++ {
			if types.IsInterface(u.Term(j).Type()) {
				return true
			}
		}
	}
	return false
}

func isNil(tv types.TypeAndValue) bool {
	_, isNil := tv.Type.(*types.Basic)
	if !isNil {
		return false
	}
	return tv.Type.(*types.Basic).Kind() == types.UntypedNil
}

// isBuiltin reports whether id names the builtin of the given name.
func isBuiltin(pass *lint.Pass, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// sliceKey names an append destination well enough to match it against
// make() sites: reuses the lock resolver's selector-chain reduction.
func sliceKey(pass *lint.Pass, e ast.Expr) (string, bool) {
	key, _, ok := locks.Resolve(pass.TypesInfo, e)
	if !ok {
		return "", false
	}
	return key.Root.Name() + key.Path, true
}

// preallocated collects the names of slice destinations given capacity via
// make anywhere in the function (make([]T, n) or make([]T, 0, n)).
func preallocated(pass *lint.Pass, body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || !isBuiltin(pass, id, "make") {
				continue
			}
			if key, ok := sliceKey(pass, as.Lhs[i]); ok {
				out[key] = true
			}
		}
		return true
	})
	return out
}
