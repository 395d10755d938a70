package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// loopByName is the lookup ByName replaced: rebuild both catalogs on every
// call and fold-compare each name. ByName over the table built once must agree
// with it on every input.
func loopByName(name string) (Config, error) {
	name = strings.TrimSpace(name)
	for _, c := range append(Catalog(), ModernCatalog()...) {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("machine: no catalog configuration %q", name)
}

// spellings returns the ways a client may write name: as listed, lower
// and upper case, alternating case, and padded with spaces.
func spellings(name string) []string {
	alt := []byte(strings.ToLower(name))
	for i := 0; i < len(alt); i += 2 {
		alt[i] = strings.ToUpper(string(alt[i]))[0]
	}
	return []string{name, strings.ToLower(name), strings.ToUpper(name), string(alt),
		" " + name, name + " ", "\t " + strings.ToLower(name) + " \n"}
}

func TestByNameMatchesLoop(t *testing.T) {
	var inputs []string
	for _, c := range append(Catalog(), ModernCatalog()...) {
		inputs = append(inputs, spellings(c.Name)...)
	}
	inputs = append(inputs,
		// Unicode folding reaches ASCII names: U+017F folds to s, and
		// U+212A (Kelvin) to k.
		"modern-2ſ-server", "MODERN-2ſ-SERVER", "K1",
		// Unknown names, including near misses and the over-long.
		"", "  ", "C0", "C16", "C99", "C 1", "c1 5", "modern", "cloud-vm-16",
		"Ｃ1", strings.Repeat("C1", 40), "modern-2s-server-and-then-some")
	for _, in := range inputs {
		got, gotErr := ByName(in)
		want, wantErr := loopByName(in)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ByName(%q): err %v, loop err %v", in, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("ByName(%q) error %q, loop %q", in, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %+v, loop %+v", in, got, want)
		}
	}
}

// TestByNameReturnsOwnCopy: a caller mutating what ByName returned must
// not change what the next lookup returns.
func TestByNameReturnsOwnCopy(t *testing.T) {
	for _, name := range []string{"modern-2s-server", "cloud-vm-8", "C4"} {
		first, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := loopByName(name)
		for i := range first.Levels {
			first.Levels[i].Bytes = 1
			first.Levels[i].LatencyCycles = 99
		}
		first.Levels = append(first.Levels, CacheLevel{Bytes: 7})
		first.Name, first.Procs = "mutated", 99
		if again, _ := ByName(name); !reflect.DeepEqual(again, want) {
			t.Errorf("%s after mutating a returned copy: %+v, want %+v", name, again, want)
		}
	}
}

func TestByNameAllocs(t *testing.T) {
	for _, name := range []string{"C4", "c15", " C9 "} {
		if n := testing.AllocsPerRun(100, func() { ByName(name) }); n != 0 {
			t.Errorf("ByName(%q): %v allocations, want 0", name, n)
		}
	}
}

func BenchmarkByName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ByName("C4"); err != nil {
			b.Fatal(err)
		}
	}
}
