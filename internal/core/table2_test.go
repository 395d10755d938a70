package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// loopPaperWorkloadByName is the lookup PaperWorkloadByName replaced:
// rebuild the Table 2 list on every call and compare lower-cased names.
func loopPaperWorkloadByName(name string) (Workload, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "tpcc" || key == "tpc-c" {
		return PaperTPCC(), nil
	}
	for _, w := range PaperWorkloads() {
		if strings.ToLower(w.Name) == key {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("core: unknown paper workload %q (have %s)",
		name, strings.Join(PaperWorkloadNames(), ", "))
}

func TestPaperWorkloadByNameMatchesLoop(t *testing.T) {
	var inputs []string
	for _, name := range append(PaperWorkloadNames(), "tpcc", "TpCc") {
		inputs = append(inputs, name, strings.ToLower(name), strings.ToUpper(name),
			" "+name, name+"\t", "\n "+strings.ToLower(name)+" ")
	}
	inputs = append(inputs,
		// Unicode lower-casing reaches ASCII names: U+0130 lowers to i.
		"RADİX", "radİx",
		// Unknown names, near misses and the over-long.
		"", " ", "barnes", "ff", "fftt", "tpc", "tpc_c", "TPC C", "ＦＦＴ",
		strings.Repeat("fft", 20))
	for _, in := range inputs {
		got, gotErr := PaperWorkloadByName(in)
		want, wantErr := loopPaperWorkloadByName(in)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("PaperWorkloadByName(%q): err %v, loop err %v", in, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("PaperWorkloadByName(%q) error %q, loop %q", in, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("PaperWorkloadByName(%q) = %+v, loop %+v", in, got, want)
		}
	}
}

// TestPaperWorkloadByNameReturnsOwnCopy: a caller mutating what the
// lookup returned must not change what the next lookup returns.
func TestPaperWorkloadByNameReturnsOwnCopy(t *testing.T) {
	for _, name := range append(PaperWorkloadNames(), "tpcc") {
		first, err := PaperWorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := loopPaperWorkloadByName(name)
		if first.ConflictCurve != nil {
			t.Fatalf("%s: a Table 2 entry carries a ConflictCurve; the lookup must clone it", name)
		}
		first.Name, first.Locality.Beta = "mutated", -1
		first.ConflictCurve = append(first.ConflictCurve, ConflictPoint{})
		if again, _ := PaperWorkloadByName(name); !reflect.DeepEqual(again, want) {
			t.Errorf("%s after mutating a returned copy: %+v, want %+v", name, again, want)
		}
	}
}

func TestPaperWorkloadByNameAllocs(t *testing.T) {
	for _, name := range []string{"FFT", "fft", "Radix", " TPC-C "} {
		if n := testing.AllocsPerRun(100, func() { PaperWorkloadByName(name) }); n != 0 {
			t.Errorf("PaperWorkloadByName(%q): %v allocations, want 0", name, n)
		}
	}
}
