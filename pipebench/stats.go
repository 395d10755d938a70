package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// minBeyond is the fewest samples that must lie above a reported tail
// percentile; fewer make the percentile a reading of one or two outliers.
const minBeyond = 10

// quantile is one percentile of a sample, with the count it came from.
type quantile struct {
	Value float64
	N     int
}

// median returns the middle of the samples (the mean of the middle two for
// an even count). It is defined for any non-empty sample.
func median(xs []float64) (quantile, error) {
	if len(xs) == 0 {
		return quantile{}, fmt.Errorf("median of no samples")
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return quantile{s[n/2], n}, nil
	}
	return quantile{(s[n/2-1] + s[n/2]) / 2, n}, nil
}

// percentile returns the nearest-rank p-th percentile (50 < p < 100) and
// refuses one with fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (quantile, error) {
	if p <= 50 || p >= 100 {
		return quantile{}, fmt.Errorf("percentile %v outside (50, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return quantile{}, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return quantile{sorted(xs)[rank-1], n}, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// runtimeCounters is a snapshot of the Go runtime's cumulative allocation
// and collection counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (c runtimeCounters) minus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - b.allocBytes,
		gcCycles:   c.gcCycles - b.gcCycles,
		pauseNs:    c.pauseNs - b.pauseNs,
	}
}

// resetPeakRSS starts a new peak-resident-set window: on Linux, writing 5
// to clear_refs resets VmHWM to the current resident set. Where that is
// refused, the window stays the whole process lifetime, and the run says so.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench: peak RSS covers set-up too:", err)
	}
}

// peakRSSMiB returns VmHWM, the peak resident set of this process (child
// processes excluded) since it started or since resetPeakRSS.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(rest, "%g kB", &kib); err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
