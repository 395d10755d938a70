package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// renderArtifactsByName renders a fresh reproduction's artifacts with the
// given scheduling (serial or all-concurrent) and returns each
// deterministic artifact's bytes by name.
func renderArtifactsByName(t *testing.T, concurrent bool) map[string][]byte {
	t.Helper()
	s := NewSuite(Options{})
	arts := s.Artifacts()
	bufs := make([]bytes.Buffer, len(arts))
	if concurrent {
		var wg sync.WaitGroup
		for i := range arts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := arts[i].Render(&bufs[i]); err != nil {
					t.Errorf("%s: %v", arts[i].Name, err)
				}
			}(i)
		}
		wg.Wait()
	} else {
		for i := range arts {
			if err := arts[i].Render(&bufs[i]); err != nil {
				t.Fatalf("%s: %v", arts[i].Name, err)
			}
		}
	}
	out := make(map[string][]byte, len(arts))
	for i, a := range arts {
		if a.Deterministic {
			out[a.Name] = bufs[i].Bytes()
		}
	}
	return out
}

// TestWriteAllParallelDeterminism is the pipeline's core guarantee: a fully
// concurrent render of every artifact produces byte-identical output to a
// serial render, artifact by artifact.
func TestWriteAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full reproduction renders")
	}
	serial := renderArtifactsByName(t, false)
	parallel := renderArtifactsByName(t, true)
	if len(serial) != len(parallel) {
		t.Fatalf("artifact counts differ: %d vs %d", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Errorf("parallel render missing artifact %s", name)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("artifact %s differs between serial and parallel render:\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, want, got)
		}
		if len(want) == 0 {
			t.Errorf("artifact %s rendered empty", name)
		}
	}
}

// TestWriteAllMatchesWriteAllParallel checks the user-facing entry points:
// modulo the wall-clock §5.3 timing line, `chc repro -all` output is
// byte-identical for any -parallel value.
func TestWriteAllMatchesWriteAllParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("two full reproduction renders")
	}
	stripTiming := func(s string) string {
		i := strings.Index(s, "§5.3 cost of prediction")
		if i < 0 {
			t.Fatalf("output missing the §5.3 timing line:\n%s", s)
		}
		return s[:i]
	}
	var serial, parallel strings.Builder
	if err := WriteAll(&serial, Options{}); err != nil {
		t.Fatal(err)
	}
	var calls []string
	var mu sync.Mutex
	progress := func(name string, d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, name)
		if err != nil {
			t.Errorf("progress reported failure for %s: %v", name, err)
		}
		if d < 0 {
			t.Errorf("progress reported negative duration for %s", name)
		}
	}
	if err := WriteAllParallel(&parallel, Options{}, 8, progress); err != nil {
		t.Fatal(err)
	}
	if stripTiming(serial.String()) != stripTiming(parallel.String()) {
		t.Error("serial and parallel WriteAll output differ")
	}
	if len(calls) != len(NewSuite(Options{}).Artifacts()) {
		t.Errorf("progress saw %d artifacts, want %d", len(calls), len(NewSuite(Options{}).Artifacts()))
	}
}
