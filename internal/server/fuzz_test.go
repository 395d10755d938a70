package server

import (
	"math"
	"strings"
	"testing"

	"memhier/internal/cluster/ring"
)

// fuzzRing places fuzzed keys on a small cluster; built once — ring
// construction is deterministic, lookups are read-only.
var fuzzRing = func() *ring.Ring {
	r, err := ring.New(ring.Config{Nodes: []string{"n0", "n1", "n2", "n3", "n4"}})
	if err != nil {
		panic(err)
	}
	return r
}()

// FuzzCanonicalKey exercises the request-canonicalization pipeline that
// derives cache keys — preparePredict and canonicalKey, the exact path
// /v1/predict runs (and batch and sweep points share) before touching the
// cache. Properties, on arbitrary request fields:
//
//   - no panic, whatever the spelling
//   - determinism: preparing twice yields the identical key
//   - idempotence: a canonicalized spec canonicalizes to itself, and the
//     canonical request — the body a cluster node replays at the key's
//     owner — prepares back to the same key, so alias spellings and their
//     canonical forms share one cache entry and one ring owner
//   - keys embed their endpoint: the same request canonicalized for two
//     endpoints never collides
func FuzzCanonicalKey(f *testing.F) {
	// Catalog names, aliases, customs, and degenerate spellings.
	f.Add("C4", "", "", 0, 0, int64(0), int64(0), 0, "fft", false, 0.0)
	f.Add("c12", "", "", 0, 0, int64(0), int64(0), 0, "LU", false, 0.124)
	f.Add("", "smp", "none", 1, 4, int64(256<<10), int64(64<<20), 0, "radix", false, 0.0)
	f.Add("", "csmp", "atm", 8, 4, int64(1<<20), int64(128<<20), 2, "tpcc", false, -1.0)
	f.Add("", "ws", "100", 32, 1, int64(0), int64(0), 16, "edge", true, 0.0)
	f.Add("C1", "", "", 0, 0, int64(0), int64(0), 0, "", false, 0.0)
	f.Add("", "", "", 0, 0, int64(0), int64(0), 0, "fft", false, 0.0)
	f.Add("C99", "bogus", "9000", -1, -1, int64(-5), int64(-5), -3, "no-such-kernel", true, 1e308)

	s := New(Config{})
	f.Cleanup(s.Close)
	prepare := func(t *testing.T, req PredictRequest) (PredictRequest, string, bool) {
		canonical, _, err := s.preparePredict(&req)
		if err != nil {
			return PredictRequest{}, "", false // rejected before keying (a 400)
		}
		key, err := canonicalKey(predictRoute, canonical)
		if err != nil {
			if math.IsNaN(req.Delta) || math.IsInf(req.Delta, 0) {
				return PredictRequest{}, "", false // no JSON body carries it
			}
			t.Fatalf("canonicalKey failed on prepared request %+v: %v", canonical, err)
		}
		return canonical.(PredictRequest), key, true
	}

	f.Fuzz(func(t *testing.T, name, kind, net string, machines, procs int,
		cacheBytes, memoryBytes int64, divisor int, workload string, measured bool, delta float64) {

		req := PredictRequest{
			Config: ConfigSpec{
				Name: name, Kind: kind, Net: net,
				Machines: machines, Procs: procs,
				CacheBytes: cacheBytes, MemoryBytes: memoryBytes,
				Divisor: divisor,
			},
			Workload: WorkloadSpec{Name: workload, Measured: measured},
			Delta:    delta,
		}
		canonical, key1, ok := prepare(t, req)
		if !ok {
			return
		}
		if _, key2, _ := prepare(t, req); key2 != key1 {
			t.Fatalf("keying not deterministic: %q vs %q", key1, key2)
		}
		if !strings.HasPrefix(key1, "predict\x00") {
			t.Fatalf("key %q does not embed its endpoint", key1)
		}
		other, err := canonicalKey("validate", canonical)
		if err != nil || other == key1 {
			t.Fatalf("keys collide across endpoints: %q", key1)
		}

		// Idempotence: the canonical workload is a fixed point.
		cwl := canonical.Workload
		again, err := canonicalWorkload(cwl)
		if err != nil {
			t.Fatalf("canonical workload %+v rejected on re-canonicalization: %v", cwl, err)
		}
		if again != cwl {
			t.Fatalf("canonicalWorkload not idempotent: %+v -> %+v", cwl, again)
		}

		// Replaying the canonical request reproduces the same key, so alias
		// spellings cannot split the cache, and lands on the same owner.
		_, key3, ok := prepare(t, canonical)
		if !ok || key3 != key1 {
			t.Fatalf("canonical request not a fixed point: %q vs %q (prepared %v)", key3, key1, ok)
		}
		if fuzzRing.Owner(key3) != fuzzRing.Owner(key1) {
			t.Fatalf("replayed key %q and original key %q placed on different owners", key3, key1)
		}

		// Sweep budget keys embed their own endpoint and the full budget
		// axis: they can never collide with predict keys.
		bk := sweepBudgetsKey{Workload: cwl, Budgets: []float64{1000, 5000}, Delta: delta}
		budgetKey, err := canonicalKey("sweepbudgets", bk)
		if err != nil {
			return // unencodable delta
		}
		if budgetKey == key1 {
			t.Fatalf("budget key collides with predict key: %q", budgetKey)
		}
	})
}
