package workloads

import (
	"fmt"
	"reflect"
	"testing"

	"memhier/internal/trace"
)

// TestCharacterizeLinesMatchesCharacterize pins the single pass: every
// element of a multi-granularity pass equals the one-granularity
// Characterize call, whether the κ baseline is one of the granularities'
// analyzers ({1, 64}) or a separate one ({1, 32}).
func TestCharacterizeLinesMatchesCharacterize(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	cases := []struct {
		opts  CharacterizeOptions
		lines []int
	}{
		{CharacterizeOptions{}, []int{1, 64}},
		{CharacterizeOptions{ConflictRefBytes: 32 << 10}, []int{1, 64}},
		{CharacterizeOptions{ConflictRefBytes: -1}, []int{1, 64}},
		{CharacterizeOptions{MaxPoints: -1}, []int{1, 64}},
		{CharacterizeOptions{}, []int{1, 32}},
	}
	for _, w := range Suite(ScaleSmall) {
		for _, tc := range cases {
			w, tc := w, tc
			t.Run(fmt.Sprintf("%s/%+v/%v", w.Name(), tc.opts, tc.lines), func(t *testing.T) {
				t.Parallel()
				got, err := CharacterizeLines(w, tc.lines, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(tc.lines) {
					t.Fatalf("%d results for %d line sizes", len(got), len(tc.lines))
				}
				for i, ls := range tc.lines {
					o := tc.opts
					o.LineSize = ls
					want, err := Characterize(w, o)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("line %d:\n got %+v\nwant %+v", ls, got[i], want)
					}
				}
			})
		}
	}
}

func TestCharacterizeLinesErrors(t *testing.T) {
	w := NewFFT(16)
	if _, err := CharacterizeLines(w, nil, CharacterizeOptions{}); err == nil {
		t.Error("empty line-size list accepted")
	}
	if _, err := CharacterizeLines(w, []int{64, 48}, CharacterizeOptions{}); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
}

// BenchmarkCharacterizeLines is the reproduction's characterization
// layer: every suite kernel measured at item and 64-byte-line granularity
// in one pass each.
func BenchmarkCharacterizeLines(b *testing.B) {
	wls := Suite(ScaleSmall)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range wls {
			if _, err := CharacterizeLines(w, []int{1, 64}, CharacterizeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAnalyzeStreams measures per-CPU stack distances of the four
// suite kernels' 2-processor traces at 64-byte lines; the traces are
// generated outside the timer.
func BenchmarkAnalyzeStreams(b *testing.B) {
	var trs []*trace.Trace
	for _, w := range Suite(ScaleSmall) {
		tr, err := GenerateTrace(w, 2)
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			if _, err := AnalyzeStreams(tr, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}
