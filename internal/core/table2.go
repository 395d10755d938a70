package core

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"memhier/internal/locality"
)

// PaperWorkloads returns the paper's Table 2 characterizations (plus the
// TPC-C measurement quoted in §5.2) as model workloads. β is in data items,
// as measured by the paper's address-stream analysis; HitMass is zero
// because the published fit already describes the full stream.
//
// These are the inputs for reproducing the paper's case studies exactly;
// the repository's own instrumented kernels produce their own (different)
// characterizations via the workloads package.
func PaperWorkloads() []Workload {
	return []Workload{
		// Footprints are the Table 2 problem sizes in 8-byte items:
		// FFT, 64K complex points plus roots and scratch (~3 MB);
		// LU, a 512×512 double matrix; Radix, 1M integers with a
		// destination array; EDGE, a 128×128 bitmap with blur/gradient/map
		// planes.
		{Name: "FFT", Locality: locality.Params{Alpha: 1.21, Beta: 103.26, Gamma: 0.20}, FootprintItems: 384 << 10},
		{Name: "LU", Locality: locality.Params{Alpha: 1.30, Beta: 90.27, Gamma: 0.31}, FootprintItems: 256 << 10},
		{Name: "Radix", Locality: locality.Params{Alpha: 1.14, Beta: 120.84, Gamma: 0.37}, FootprintItems: 1 << 20},
		{Name: "EDGE", Locality: locality.Params{Alpha: 1.71, Beta: 85.03, Gamma: 0.45}, FootprintItems: 64 << 10},
	}
}

// PaperTPCC returns the TPC-C characterization quoted in §5.2: a β more
// than ten times larger than any scientific program's, growing with the
// data set. The footprint (256 MB of warehouse data) exceeds every
// catalog memory, which is what makes the workload I/O bound.
func PaperTPCC() Workload {
	return Workload{Name: "TPC-C",
		Locality:       locality.Params{Alpha: 1.73, Beta: 1222.66, Gamma: 0.36},
		FootprintItems: 32 << 20}
}

// PaperWorkload returns the named Table 2 workload ("FFT", "LU", "Radix",
// "EDGE", or "TPC-C"), spelled any way PaperWorkloadByName accepts.
func PaperWorkload(name string) (Workload, bool) {
	w, err := PaperWorkloadByName(name)
	return w, err == nil
}

// PaperWorkloadNames returns the canonical Table 2 workload names in the
// paper's order.
func PaperWorkloadNames() []string {
	return []string{"FFT", "LU", "Radix", "EDGE", "TPC-C"}
}

// paperTable is every workload PaperWorkloadByName resolves, built once
// and keyed by its lower-cased spelling: the Table 2 names plus the TPC-C
// aliases.
var paperTable = func() []paperEntry {
	var out []paperEntry
	for _, w := range PaperWorkloads() {
		out = append(out, paperEntry{strings.ToLower(w.Name), w})
	}
	tpcc := PaperTPCC()
	return append(out, paperEntry{"tpcc", tpcc}, paperEntry{"tpc-c", tpcc})
}()

type paperEntry struct {
	key string
	wl  Workload
}

// PaperWorkloadByName is the one Table 2 workload lookup, shared by the
// chc subcommands and the chc-serve API: it resolves a Table 2 workload
// case-insensitively and accepts the kernel-style aliases ("fft", "tpcc",
// "tpc-c"). The error names the available set. Table 2 entries hold no
// slices, so the returned value is already the caller's own copy.
func PaperWorkloadByName(name string) (Workload, error) {
	if i := paperIndex(strings.TrimSpace(name)); i >= 0 {
		return paperTable[i].wl, nil
	}
	return Workload{}, fmt.Errorf("core: unknown paper workload %q (have %s)",
		name, strings.Join(PaperWorkloadNames(), ", "))
}

// paperIndex returns the position in paperTable of the entry whose key is
// strings.ToLower(name), or -1. A short ASCII name is lower-cased in a
// stack buffer, which allocates nothing; any other name goes through
// strings.ToLower, whose Unicode mapping can turn a non-ASCII rune into an
// ASCII letter (U+0130 İ lowers to i).
func paperIndex(name string) int {
	var buf [8]byte
	key, ok := buf[:0], len(name) <= len(buf)
	for i := 0; ok && i < len(name); i++ {
		b := name[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		ok = b < utf8.RuneSelf
		key = append(key, b)
	}
	if !ok {
		key = []byte(strings.ToLower(name))
	}
	for i, e := range paperTable {
		if e.key == string(key) {
			return i
		}
	}
	return -1
}
