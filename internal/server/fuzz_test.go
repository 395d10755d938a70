package server

import (
	"encoding/json"
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
// derives cache keys — the exact path handlePredict runs before touching
// the cache. Properties, on arbitrary request fields:
//
//   - no panic, whatever the spelling
//   - determinism: canonicalizing twice yields the identical key
//   - idempotence: a canonicalized spec canonicalizes to itself, so
//     alias spellings and their canonical forms share one cache entry
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

	f.Fuzz(func(t *testing.T, name, kind, net string, machines, procs int,
		cacheBytes, memoryBytes int64, divisor int, workload string, measured bool, delta float64) {

		spec := ConfigSpec{
			Name: name, Kind: kind, Net: net,
			Machines: machines, Procs: procs,
			CacheBytes: cacheBytes, MemoryBytes: memoryBytes,
			Divisor: divisor,
		}
		wspec := WorkloadSpec{Name: workload, Measured: measured}

		cfg, err := spec.Resolve()
		if err != nil {
			return // invalid platform: rejected before keying, nothing to check
		}
		cwl, err := canonicalWorkload(wspec)
		if err != nil {
			return
		}

		req := PredictRequest{Config: configKey(cfg), Workload: cwl, Delta: delta}
		key1, err := canonicalKey("predict", req)
		if err != nil {
			t.Fatalf("canonicalKey failed on resolved request: %v", err)
		}
		key2, err := canonicalKey("predict", req)
		if err != nil || key1 != key2 {
			t.Fatalf("canonicalKey not deterministic: %q vs %q (err %v)", key1, key2, err)
		}
		if !strings.HasPrefix(key1, "predict\x00") {
			t.Fatalf("key %q does not embed its endpoint", key1)
		}
		other, err := canonicalKey("validate", req)
		if err != nil || other == key1 {
			t.Fatalf("keys collide across endpoints: %q", key1)
		}

		// Idempotence: the canonical workload is a fixed point.
		again, err := canonicalWorkload(cwl)
		if err != nil {
			t.Fatalf("canonical workload %+v rejected on re-canonicalization: %v", cwl, err)
		}
		if again != cwl {
			t.Fatalf("canonicalWorkload not idempotent: %+v -> %+v", cwl, again)
		}

		// Resolving the canonical config spec reproduces the same key, so
		// alias spellings cannot split the cache.
		cfg2, err := configKey(cfg).Resolve()
		if err != nil {
			t.Fatalf("canonical config spec %+v rejected on re-resolve: %v", configKey(cfg), err)
		}
		key3, err := canonicalKey("predict", PredictRequest{Config: configKey(cfg2), Workload: cwl, Delta: delta})
		if err != nil || key3 != key1 {
			t.Fatalf("canonical config not a fixed point: %q vs %q (err %v)", key3, key1, err)
		}

		// The sweep fast path composes predict keys from per-axis JSON
		// fragments instead of marshaling per point; composition must be
		// byte-identical to canonicalization or grid points would split
		// from (or, worse, collide with) single-request cache entries.
		cfgJSON, err := json.Marshal(configKey(cfg))
		if err != nil {
			t.Fatalf("marshal config fragment: %v", err)
		}
		wlJSON, err := json.Marshal(cwl)
		if err != nil {
			t.Fatalf("marshal workload fragment: %v", err)
		}
		var deltaJSON []byte
		if delta != 0 {
			if deltaJSON, err = json.Marshal(delta); err != nil {
				return // unencodable delta (NaN/Inf): the sweep handler rejects it with the same error
			}
		}
		composed := composePredictKey(cfgJSON, wlJSON, deltaJSON)
		if composed != key1 {
			t.Fatalf("composed sweep key diverges from canonical key:\ncomposed:  %q\ncanonical: %q", composed, key1)
		}

		// Cluster placement rides these keys: a sweep point and the
		// equivalent single request must land on the same ring owner, or
		// a grid would forward points away from the shard that caches
		// their single-request twins. (Byte-identity above implies this;
		// asserting it directly keys the property to what the cluster
		// actually consumes.)
		if fuzzRing.Owner(composed) != fuzzRing.Owner(key1) {
			t.Fatalf("composed key %q and canonical key %q placed on different owners", composed, key1)
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
