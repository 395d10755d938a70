package backend

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memhier/internal/sim/cache"
)

// exactPresence counts the resident deep lines behind every counter of the
// system's presence filter.
func exactPresence(s *System) []int {
	exact := make([]int, len(s.pres.counts))
	for li := range s.deep {
		for cpu := range s.deep[li] {
			node := s.node(cpu)
			s.deep[li][cpu].Lines(func(lineAddr uint64, _ cache.State) {
				exact[s.pres.slot(node, lineAddr*CacheLineSize)]++
			})
		}
	}
	return exact
}

// runDeepRandom runs one seeded random trace on every deep test config and
// calls check with each finished system.
func runDeepRandom(t *testing.T, seed int64, prepare func(*System), check func(name string, s *System, r RunResult)) {
	t.Helper()
	for i, cfg := range deepTestConfigs() {
		tr := randomTrace(rand.New(rand.NewSource(seed)), cfg.TotalProcs(), 5, 300)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prepare != nil {
			prepare(sys)
		}
		res, err := Run(tr, sys)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("#%d %s/%d×%d", i, cfg.Name, cfg.N, cfg.Procs), sys, res)
	}
}

// TestPresenceFilterExact checks that the filter tracks every install and
// every removal, not merely that it never under-counts: away from
// saturation each counter must equal the resident deep lines hashing to
// it. A missed decrement would pass VerifyCoherence and only cost probes,
// so this is what catches it.
func TestPresenceFilterExact(t *testing.T) {
	runDeepRandom(t, 7, nil, func(name string, s *System, _ RunResult) {
		exact := exactPresence(s)
		for i, c := range s.pres.counts {
			if c != presenceSaturated && int(c) != exact[i] {
				t.Fatalf("%s: counter %d holds %d, %d resident deep lines hash to it", name, i, c, exact[i])
			}
		}
	})
}

// TestPresenceFilterSaturationKeepsResults shrinks the filter to two
// counters per node, so nearly every deep line collides and the counters
// saturate: results must not change by a bit, because a saturated or
// shared counter only costs probes.
func TestPresenceFilterSaturationKeepsResults(t *testing.T) {
	want := map[string]RunResult{}
	runDeepRandom(t, 3, nil, func(name string, _ *System, r RunResult) { want[name] = r })
	saturated := false
	runDeepRandom(t, 3, func(s *System) {
		s.pres = newPresenceFilter(s.nodes, 1)
	}, func(name string, s *System, r RunResult) {
		if !reflect.DeepEqual(r, want[name]) {
			t.Errorf("%s: a two-counter filter changed the results", name)
		}
		if err := s.VerifyCoherence(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, c := range s.pres.counts {
			saturated = saturated || c == presenceSaturated
		}
	})
	if !saturated {
		t.Error("no counter saturated; the test no longer exercises saturation")
	}
}

// TestVerifyCoherenceCatchesPresenceUnderCount corrupts one counter below
// its true count and expects VerifyCoherence to report it.
func TestVerifyCoherenceCatchesPresenceUnderCount(t *testing.T) {
	sys, err := NewSystem(withLevels(smpConfig(4), 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(randomTrace(rand.New(rand.NewSource(1)), 4, 3, 300), sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.pres.counts {
		if c != 0 && c != presenceSaturated {
			sys.pres.counts[i]--
			err := sys.VerifyCoherence()
			if err == nil || !strings.Contains(err.Error(), "presence counter") {
				t.Fatalf("under-counted presence counter not reported, got %v", err)
			}
			return
		}
	}
	t.Fatal("no deep line resident after the run")
}

// TestOneLevelHasNoPresenceFilter pins that one-level configs carry no
// filter: their paths never consult it.
func TestOneLevelHasNoPresenceFilter(t *testing.T) {
	sys, err := NewSystem(smpConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if sys.deep != nil || sys.pres.counts != nil {
		t.Errorf("one-level system built deep state: %d deep levels, %d presence counters",
			len(sys.deep), len(sys.pres.counts))
	}
}
