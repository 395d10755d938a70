package hotalloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestBoxes pins which destination types box a concrete value: interfaces
// and type parameters an interface could instantiate do; a type parameter
// constrained to concrete terms (the simulator's clock type) does not.
func TestBoxes(t *testing.T) {
	const src = `package p

type number interface{ ~uint64 | ~float64 }
type stringer interface{ String() string }

func f[Num number, Any any, Str stringer](num Num, a Any, s Str, i int, e error, x any) {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"num": false, "a": true, "s": true, "i": false, "e": true, "x": true}
	for id, obj := range info.Defs {
		w, ok := want[id.Name]
		if !ok || obj == nil {
			continue
		}
		if got := boxes(obj.Type()); got != w {
			t.Errorf("boxes(%s %s) = %v, want %v", id.Name, obj.Type(), got, w)
		}
		delete(want, id.Name)
	}
	if len(want) != 0 {
		t.Errorf("parameters not found: %v", want)
	}
}
