package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"memhier/internal/core"
	"memhier/internal/machine"
	"memhier/internal/stopwatch"
)

// Artifact is one independently renderable deliverable of the reproduction
// (a table, a figure, a case study). Artifacts sharing a Suite may render
// concurrently; the Suite's single-flight caches dedup the expensive trace
// and characterization work between them.
type Artifact struct {
	Name string
	// Deterministic reports whether repeated renders produce identical
	// bytes (everything except the wall-clock §5.3 timing comparison).
	Deterministic bool
	Render        func(io.Writer) error
}

// Progress observes artifact completion: name, render duration, and the
// render error (nil on success). Called from the rendering goroutines, so
// implementations must be safe for concurrent use.
type Progress func(name string, d time.Duration, err error)

// Artifacts returns the complete reproduction — every table, every figure,
// and the §6 case studies — as independent render jobs in output order.
func (s *Suite) Artifacts() []Artifact {
	opts := s.opts
	art := func(name string, det bool, render func(io.Writer) error) Artifact {
		return Artifact{Name: name, Deterministic: det, Render: render}
	}
	tab := func(name string, f func() (interface{ Render(io.Writer) }, error)) Artifact {
		return art(name, true, func(w io.Writer) error {
			t, err := f()
			if err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintln(w)
			return nil
		})
	}
	return []Artifact{
		tab("table1", func() (interface{ Render(io.Writer) }, error) { return Table1(), nil }),
		tab("table2", func() (interface{ Render(io.Writer) }, error) {
			_, t, err := s.Table2()
			return t, err
		}),
		tab("table2-paper", func() (interface{ Render(io.Writer) }, error) { return PaperTable2(), nil }),
		tab("table3", func() (interface{ Render(io.Writer) }, error) { return Table3(), nil }),
		tab("table4", func() (interface{ Render(io.Writer) }, error) { return Table4(), nil }),
		tab("table5", func() (interface{ Render(io.Writer) }, error) { return Table5(), nil }),
		tab("figure2", func() (interface{ Render(io.Writer) }, error) {
			v, err := s.figure(2, machine.Catalog())
			return v.Table(), err
		}),
		tab("figure3", func() (interface{ Render(io.Writer) }, error) {
			v, err := s.figure(3, machine.Catalog())
			return v.Table(), err
		}),
		tab("figure4", func() (interface{ Render(io.Writer) }, error) {
			v, err := s.figure(4, machine.Catalog())
			return v.Table(), err
		}),
		tab("case1", func() (interface{ Render(io.Writer) }, error) {
			_, t, err := Case1(opts.Model)
			return t, err
		}),
		tab("case2", func() (interface{ Render(io.Writer) }, error) {
			_, t, err := Case2(opts.Model)
			return t, err
		}),
		tab("case3", func() (interface{ Render(io.Writer) }, error) {
			_, t, err := Case3(2000, opts.Model)
			return t, err
		}),
		tab("case-fft4x", func() (interface{ Render(io.Writer) }, error) {
			_, t, err := CaseFFT4x(opts.Model)
			return t, err
		}),
		tab("principles", func() (interface{ Render(io.Writer) }, error) { return Principles(), nil }),
		tab("case-modern", func() (interface{ Render(io.Writer) }, error) {
			_, t, err := CaseModernNetworks(opts.Model)
			return t, err
		}),
		art("case-speedgap", true, func(w io.Writer) error {
			fft, ok := core.PaperWorkload("FFT")
			if !ok {
				return nil
			}
			_, t, err := CaseSpeedGap(fft, opts.Model)
			if err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintln(w)
			return nil
		}),
		art("speed-comparison", false, func(w io.Writer) error {
			sc, err := s.ModelVsSimSpeed()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "§5.3 cost of prediction: model %v per evaluation vs simulation %v (%.0fx)\n",
				sc.ModelTime, sc.SimTime, sc.Ratio)
			return nil
		}),
	}
}

// RenderArtifacts renders the artifacts over a bounded worker pool
// (workers < 1 means runtime.NumCPU) into per-artifact buffers, then
// writes them to w in the given order. Output is byte-identical for any
// worker count: ordering is fixed by the artifact list, and each
// deterministic artifact's bytes depend only on the Suite's options.
// progress, if non-nil, is invoked as each artifact finishes rendering.
func RenderArtifacts(w io.Writer, arts []Artifact, workers int, progress Progress) error {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	bufs := make([]bytes.Buffer, len(arts))
	errs := make([]error, len(arts))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range arts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			elapsed := stopwatch.Start()
			errs[i] = arts[i].Render(&bufs[i])
			if progress != nil {
				progress(arts[i].Name, elapsed(), errs[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", arts[i].Name, err)
		}
	}
	for i := range bufs {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// WriteAll renders the complete reproduction — every table, every figure,
// and the §6 case studies — to w. It is what `chc repro -all` runs.
// Rendering is serial at the artifact level (each figure still fans its
// validation matrix out internally); WriteAllParallel adds artifact-level
// concurrency with byte-identical output.
func WriteAll(w io.Writer, opts Options) error {
	return WriteAllParallel(w, opts, 1, nil)
}

// WriteAllParallel is WriteAll with an artifact-level worker pool
// (workers < 1 means runtime.NumCPU) and an optional progress reporter.
// Parallel and serial runs emit byte-identical output for every
// deterministic artifact: the shared Suite dedups trace generation via
// single-flight, the simulator itself is deterministic (FIFO tiebreak on
// equal clocks), and artifacts are concatenated in fixed order.
func WriteAllParallel(w io.Writer, opts Options, workers int, progress Progress) error {
	s := NewSuite(opts)
	return RenderArtifacts(w, s.Artifacts(), workers, progress)
}
