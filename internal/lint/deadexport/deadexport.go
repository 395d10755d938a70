// Package deadexport reports exported package-level functions under an
// internal/ directory that no loaded file of the program references. An
// internal package can only be imported from inside its module, so once
// every package of the module is loaded (chc-lint's default ./...) such a
// function provably has no caller outside the tests: it is surface to
// delete, not API to keep.
//
// It is a whole-program check, built on NewState/Finish like lockorder:
// each package's Run records the functions it declares and the functions
// its files reference, and Finish reports the declared ones nobody
// referenced. Run it over the whole module — on a subset of packages a
// function whose callers lie outside the subset is reported too.
//
// Scope and exemptions:
//
//   - functions only: methods and types are skipped, since a method may be
//     live through interface satisfaction, which needs more analysis;
//   - a generic function is matched through its Origin, so a call of any
//     instantiation counts;
//   - a reference from inside the function's own body (recursion) does not
//     count;
//   - packages whose name ends in "test" (test helpers such as
//     lint/analysistest) are exempt, since their callers are tests;
//   - a function kept for a caller the module cannot see (a separate
//     module that imports it) carries `//chc:allow deadexport -- reason`.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"memhier/internal/lint"
)

// Analyzer reports exported internal/ functions that nothing references.
var Analyzer = &lint.Analyzer{
	Name: "deadexport",
	Doc: `deadexport reports an exported package-level function declared under an
internal/ directory that no non-test file of the loaded program references
(generic functions are matched by Origin; recursion does not count).
Methods and types are out of scope. Packages named *test are exempt. Run
it over the whole module: callers outside the loaded packages are unseen.`,
	Run:      run,
	NewState: func() any { return &state{used: map[*types.Func]bool{}} },
	Finish:   finish,
}

type state struct {
	declared []declared
	used     map[*types.Func]bool
}

type declared struct {
	fn  *types.Func
	pos token.Position
}

func run(pass *lint.Pass) error {
	st := pass.State.(*state)
	candidate := underInternal(pass.Pkg.Path()) && !strings.HasSuffix(pass.Pkg.Name(), "test")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			var self *types.Func
			if isFunc {
				self, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if candidate && self != nil && fd.Recv == nil && fd.Name.IsExported() {
					st.declared = append(st.declared, declared{self, pass.Fset.Position(fd.Name.Pos())})
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Origin() != self {
					st.used[fn.Origin()] = true
				}
				return true
			})
		}
	}
	return nil
}

func finish(s any, report func(lint.Diagnostic)) error {
	st := s.(*state)
	for _, d := range st.declared {
		if st.used[d.fn] {
			continue
		}
		report(lint.Diagnostic{
			Pos:     d.pos,
			Message: "exported function " + d.fn.Pkg().Name() + "." + d.fn.Name() + " has no non-test reference in the program; delete it, or keep it with //chc:allow deadexport -- <caller>",
		})
	}
	return nil
}

// underInternal reports whether the import path has an "internal" element.
func underInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}
