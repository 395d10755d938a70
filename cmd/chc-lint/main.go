// Command chc-lint runs the repository's custom static-analysis suite —
// the checks behind the determinism and correctness contracts that go vet
// cannot see:
//
//	detorder   no map-order, wall-clock, environment, or global-rand
//	           dependence in //chc:deterministic packages
//	floateq    no exact floating-point equality in model arithmetic
//	errwrap    fmt.Errorf must wrap error arguments with %w, not %v/%s
//	guardedby  flow-sensitive: fields annotated "guarded by mu" are only
//	           touched with the lock must-held; returns never leak a lock
//	lockorder  whole-program lock-acquisition graph is acyclic (no
//	           potential deadlocks)
//	atomics    variables accessed via sync/atomic are never accessed
//	           plainly
//	leakcheck  launched goroutines always have a reachable exit or a
//	           channel operation to block on
//	hotalloc   //chc:hotpath functions avoid fmt, map iteration,
//	           unpreallocated append, and interface boxing
//	deadexport every exported function under internal/ has a non-test
//	           reference somewhere in the module (whole-program)
//
// Usage:
//
//	chc-lint [-list] [-json] [packages]
//
// Packages default to ./... resolved from the current directory. With
// -json, diagnostics are NDJSON records {file, line, col, analyzer,
// message} — one object per line, for tooling. The exit status is 1 when
// any diagnostic is reported, 2 on operational errors — the same
// convention as go vet, so CI can gate on it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"memhier/internal/lint"
	"memhier/internal/lint/atomics"
	"memhier/internal/lint/deadexport"
	"memhier/internal/lint/detorder"
	"memhier/internal/lint/errwrap"
	"memhier/internal/lint/floateq"
	"memhier/internal/lint/guardedby"
	"memhier/internal/lint/hotalloc"
	"memhier/internal/lint/leakcheck"
	"memhier/internal/lint/lockorder"
)

// analyzers is the full suite, in stable output order.
var analyzers = []*lint.Analyzer{
	atomics.Analyzer,
	deadexport.Analyzer,
	detorder.Analyzer,
	errwrap.Analyzer,
	floateq.Analyzer,
	guardedby.Analyzer,
	hotalloc.Analyzer,
	leakcheck.Analyzer,
	lockorder.Analyzer,
}

// jsonDiag is the NDJSON shape of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and their contracts, then exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as NDJSON records")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s:\n%s\n\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "chc-lint: %s: type error: %v\n", pkg.Path, terr)
		}
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *asJSON {
			rec := jsonDiag{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message}
			if err := enc.Encode(rec); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chc-lint:", err)
	os.Exit(2)
}
