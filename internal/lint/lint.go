// Package lint is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface this repository needs: named
// analyzers that walk type-checked packages and report position-tagged
// diagnostics. It exists because the repo's correctness story — byte-identical
// reproduction artifacts, typed errors surviving wrapping, lock-guarded
// shared state — rests on conventions `go vet` cannot see, and the build
// environment is hermetic (no module downloads), so the framework itself
// has to live in-tree on the standard library alone.
//
// The API mirrors go/analysis closely enough that the per-package
// analyzers in the subpackages (atomics, detorder, errwrap, floateq,
// guardedby, hotalloc, leakcheck) could be ported to real
// *analysis.Analyzer values by changing imports only. Analyzers that need
// whole-program state (lockorder, deadexport) additionally set
// NewState/Finish: the runner threads one shared accumulator through every
// package's Run and calls Finish once at the end, the moral equivalent of
// go/analysis facts. Flow-sensitive analyzers build per-function control-flow graphs
// with the sibling cfg package and model lock identity with the locks
// package.
//
// Three comment directives drive the suite:
//
//   - `//chc:deterministic` in a package's doc block declares that the
//     package is part of the reproduction pipeline and must be exactly
//     reproducible run-to-run. detorder and floateq only fire inside
//     marked packages.
//   - `//chc:hotpath` in a function's doc block declares the function is
//     on a measured hot path; hotalloc polices allocation-prone constructs
//     inside it (and inside its function literals).
//   - `//chc:allow <analyzer> [-- reason]` on the offending line (or the
//     line above it) suppresses one diagnostic. Suppressions are for code
//     whose wall-clock or ordering behaviour is the measurement itself
//     (e.g. the §5.3 model-vs-simulator speed comparison) or for provably
//     cold branches inside hot functions; they are not a substitute for
//     fixing order-dependent rendering.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //chc:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// NewState, if non-nil, creates per-lint.Run state. The same value is
	// exposed as Pass.State to every package's Run and handed to Finish —
	// the accumulator of whole-program analyses (lockorder's acquisition
	// graph). Keeping state per lint.Run, not per Analyzer value, keeps the
	// package-level Analyzer singletons reusable across runs and tests.
	NewState func() any
	// Finish, if non-nil, runs once after every package's Run: the
	// program-level half of a whole-program analysis. Reported diagnostics
	// pass the same //chc:allow filter as per-package ones, with
	// directives collected from every analyzed file.
	Finish func(state any, report func(Diagnostic)) error
}

// A Pass provides one analyzer run over one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// State is the analyzer's per-lint.Run accumulator (NewState's value,
	// shared across packages); nil for purely per-package analyzers.
	State any

	// report receives diagnostics that survived suppression checks.
	report func(Diagnostic)
	// sup filters diagnostics through //chc:allow directives; shared by
	// every pass of one lint.Run.
	sup *suppressor
	// deterministic caches the //chc:deterministic marker lookup.
	deterministic *bool
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless a `//chc:allow <name>`
// directive on the same line or the line immediately above suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.sup.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

var allowRe = regexp.MustCompile(`^//chc:allow\s+([a-z0-9_,]+)`)

// suppressor is the //chc:allow directive table of one lint.Run, collected
// from every analyzed file so both per-package and Finish-time diagnostics
// consult the same directives.
type suppressor struct {
	// allowed maps filename → line → analyzer names suppressed there.
	allowed map[string]map[int][]string
}

func newSuppressor(pkgs []*Package) *suppressor {
	s := &suppressor{allowed: map[string]map[int][]string{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					cp := pkg.Fset.Position(c.Pos())
					byLine := s.allowed[cp.Filename]
					if byLine == nil {
						byLine = map[int][]string{}
						s.allowed[cp.Filename] = byLine
					}
					names := strings.Split(m[1], ",")
					// A directive on its own line covers the next line;
					// a trailing directive covers its own line.
					byLine[cp.Line] = append(byLine[cp.Line], names...)
				}
			}
		}
	}
	return s
}

func (s *suppressor) suppressed(analyzer string, pos token.Position) bool {
	byLine := s.allowed[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// Deterministic reports whether the package carries the
// `//chc:deterministic` marker in any of its file comments (by convention
// it sits in the package doc block).
func (p *Pass) Deterministic() bool {
	if p.deterministic != nil {
		return *p.deterministic
	}
	det := false
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == "//chc:deterministic" {
					det = true
				}
			}
		}
	}
	p.deterministic = &det
	return det
}

// CalleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, type conversions, and calls of function-typed values.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes a package-level function (not a
// method) named one of names from the package with the given import path.
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := p.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package — then each analyzer's
// Finish across the whole package set — and returns the combined
// diagnostics sorted by file, line, and column — a deterministic order, as
// befits the suite.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	sup := newSuppressor(pkgs)
	states := make(map[*Analyzer]any, len(analyzers))
	for _, a := range analyzers {
		if a.NewState != nil {
			states[a] = a.NewState()
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				State:     states[a],
				sup:       sup,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		report := func(d Diagnostic) {
			d.Analyzer = name
			if sup.suppressed(name, d.Pos) {
				return
			}
			diags = append(diags, d)
		}
		if err := a.Finish(states[a], report); err != nil {
			return nil, fmt.Errorf("lint: %s finish: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
