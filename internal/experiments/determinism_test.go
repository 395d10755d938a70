package experiments

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestArtifactPipelineRunToRunDeterminism is the runtime witness for what
// the detorder analyzer enforces statically: two completely independent
// runs of the chc repro artifact pipeline — fresh Suite, fresh caches,
// different worker counts (-parallel 1 vs -parallel 8) — must produce
// byte-identical deterministic artifacts. Where detorder proves no map
// order, wall clock, or global randomness *can* leak into the output, this
// test observes that none *did*.
func TestArtifactPipelineRunToRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full reproduction renders")
	}
	render := func(workers int) []byte {
		var buf bytes.Buffer
		s := NewSuite(Options{})
		var det []Artifact
		for _, a := range s.Artifacts() {
			if a.Deterministic {
				det = append(det, a)
			}
		}
		if len(det) == 0 {
			t.Fatal("no deterministic artifacts in the registry")
		}
		if err := RenderArtifacts(&buf, det, workers, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	run1 := render(1)
	run8 := render(8)
	if len(run1) == 0 {
		t.Fatal("pipeline rendered no bytes")
	}
	if !bytes.Equal(run1, run8) {
		t.Errorf("two pipeline runs (-parallel 1 vs -parallel 8) differ:\n--- run 1 (%d bytes) ---\n%.2000s\n--- run 2 (%d bytes) ---\n%.2000s",
			len(run1), run1, len(run8), run8)
	}
}

// timingLine matches the one legitimately wall-clock-dependent line of the
// report: the §5.3 model-vs-simulation speed measurement, whose payload is
// elapsed time by definition.
var timingLine = regexp.MustCompile(`One model evaluation: .*`)

// TestWriteReportRunToRunDeterminism locks in the report-timestamp fix:
// with no GeneratedAt set, two independent WriteReport runs agree byte for
// byte outside the §5.3 timing line, and no implicit timestamp sneaks into
// the header.
func TestWriteReportRunToRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full report renders")
	}
	render := func() string {
		var buf bytes.Buffer
		if err := WriteReport(&buf, Options{}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	r1, r2 := render(), render()
	if strings.Contains(r1, "Generated") {
		t.Error("report embeds a timestamp without GeneratedAt being set")
	}
	norm1 := timingLine.ReplaceAllString(r1, "<timing>")
	norm2 := timingLine.ReplaceAllString(r2, "<timing>")
	if norm1 != norm2 {
		t.Error("two report runs differ outside the §5.3 timing line")
	}
	if norm1 == r1 {
		t.Error("report is missing the §5.3 timing line the test expects to normalize")
	}
}

// TestWriteReportStamp checks the explicit opt-in: a caller-provided
// GeneratedAt lands in the header verbatim (the wall clock stays in the
// CLI layer).
func TestWriteReportStamp(t *testing.T) {
	if testing.Short() {
		t.Skip("full report render")
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, Options{GeneratedAt: "2026-08-06 00:00 UTC"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Generated 2026-08-06 00:00 UTC.") {
		t.Error("GeneratedAt not embedded in the report header")
	}
}
