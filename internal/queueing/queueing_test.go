package queueing

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMD1ResponseNoContention(t *testing.T) {
	for _, tau := range []float64{0, 1, 50, 2000, 45075} {
		got, err := MD1ResponseGuarded(tau, 0, Guard{})
		if err != nil {
			t.Fatalf("MD1ResponseGuarded(%v, 0): %v", tau, err)
		}
		if got != tau {
			t.Errorf("MD1ResponseGuarded(%v, 0) = %v, want %v", tau, got, tau)
		}
	}
}

func TestMD1ResponseKnownValues(t *testing.T) {
	tests := []struct {
		tau, lambda float64
		want        float64
	}{
		// R = tau + lambda*tau^2/(2*(1-rho))
		{tau: 10, lambda: 0.05, want: 10 + 0.05*100/(2*0.5)},
		{tau: 50, lambda: 0.01, want: 50 + 0.01*2500/(2*0.5)},
		{tau: 1, lambda: 0.5, want: 1 + 0.5*1/(2*0.5)},
	}
	for _, tc := range tests {
		got, err := MD1ResponseGuarded(tc.tau, tc.lambda, Guard{})
		if err != nil {
			t.Fatalf("MD1ResponseGuarded(%v, %v): %v", tc.tau, tc.lambda, err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("MD1ResponseGuarded(%v, %v) = %v, want %v", tc.tau, tc.lambda, got, tc.want)
		}
	}
}

func TestMD1ResponseEquivalentForms(t *testing.T) {
	// The paper's closed form (tau - lambda tau^2/2)/(1-rho) must equal the
	// Pollaczek–Khinchine form tau + lambda tau^2/(2(1-rho)).
	f := func(tauRaw, lamRaw uint16) bool {
		tau := 1 + float64(tauRaw%5000)
		lambda := float64(lamRaw%1000) / 1000 / tau * 0.99 // rho in [0, .99)
		got, err := MD1ResponseGuarded(tau, lambda, Guard{})
		if err != nil {
			return false
		}
		rho := lambda * tau
		want := tau + lambda*tau*tau/(2*(1-rho))
		return math.Abs(got-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMD1ResponseSaturation(t *testing.T) {
	if _, err := MD1ResponseGuarded(10, 0.1, Guard{}); !errors.Is(err, ErrSaturated) {
		t.Errorf("rho=1: got err=%v, want ErrSaturated", err)
	}
	if _, err := MD1ResponseGuarded(10, 0.2, Guard{}); !errors.Is(err, ErrSaturated) {
		t.Errorf("rho=2: got err=%v, want ErrSaturated", err)
	}
}

func TestMD1ResponseRejectsNegative(t *testing.T) {
	if _, err := MD1ResponseGuarded(-1, 0, Guard{}); err == nil {
		t.Error("negative tau accepted")
	}
	if _, err := MD1ResponseGuarded(1, -0.5, Guard{}); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestMD1MonotoneInLoad(t *testing.T) {
	f := func(l1Raw, l2Raw uint16) bool {
		const tau = 40.0
		l1 := float64(l1Raw%1000) / 1000 * 0.99 / tau
		l2 := float64(l2Raw%1000) / 1000 * 0.99 / tau
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		r1, err1 := MD1ResponseGuarded(tau, l1, Guard{})
		r2, err2 := MD1ResponseGuarded(tau, l2, Guard{})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1 <= r2+1e-12 && r1 >= tau
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(50, 0.01); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization(50, .01) = %v, want 0.5", got)
	}
}

func TestHarmonicSmall(t *testing.T) {
	tests := []struct {
		n    int
		want float64
	}{
		{0, 0}, {-3, 0}, {1, 1}, {2, 1.5}, {3, 1.5 + 1.0/3},
		{4, 1.0 + 0.5 + 1.0/3 + 0.25},
	}
	for _, tc := range tests {
		if got := Harmonic(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Harmonic(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestHarmonicAsymptoticAgreement(t *testing.T) {
	// The asymptotic branch should agree with direct summation at the
	// crossover scale.
	n := 1 << 17
	direct := 0.0
	for i := n; i >= 1; i-- {
		direct += 1 / float64(i)
	}
	if got := Harmonic(n); math.Abs(got-direct) > 1e-9 {
		t.Errorf("Harmonic(%d) = %v, direct sum %v", n, got, direct)
	}
}

func TestHarmonicMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		n1, n2 := int(a), int(b)
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return Harmonic(n1) <= Harmonic(n2)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMVAResponseBasics(t *testing.T) {
	// One customer never queues.
	r, err := MVAResponse(50, 100, 1)
	if err != nil || r != 50 {
		t.Errorf("MVA(1) = %v, %v; want 50", r, err)
	}
	// Zero think time: all n customers permanently enqueued, R = n·tau.
	r, err = MVAResponse(50, 0, 4)
	if err != nil || math.Abs(r-200) > 1e-9 {
		t.Errorf("MVA(z=0, n=4) = %v, %v; want 200", r, err)
	}
	// Huge think time: effectively no contention.
	r, err = MVAResponse(50, 1e12, 8)
	if err != nil || math.Abs(r-50) > 1e-3 {
		t.Errorf("MVA(z→∞) = %v, %v; want ≈50", r, err)
	}
}

func TestMVAResponseBoundsAndMonotonicity(t *testing.T) {
	f := func(tauRaw, zRaw uint16, nRaw uint8) bool {
		tau := 1 + float64(tauRaw%5000)
		z := float64(zRaw)
		n := int(nRaw%16) + 1
		prev := 0.0
		for k := 1; k <= n; k++ {
			r, err := MVAResponse(tau, z, k)
			if err != nil {
				return false
			}
			// tau ≤ R(k) ≤ k·tau, nondecreasing in k.
			if r < tau-1e-9 || r > float64(k)*tau+1e-9 || r < prev-1e-9 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMVAResponseAgreesWithMD1AtLowLoad(t *testing.T) {
	// With long think times the closed and open models converge.
	tau := 50.0
	z := 100000.0
	n := 4
	lambda := float64(n-1) / (z + tau) // competing arrival rate seen by one customer
	mva, err := MVAResponse(tau, z, n)
	if err != nil {
		t.Fatal(err)
	}
	md1, err := MD1ResponseGuarded(tau, lambda, Guard{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mva-md1)/md1 > 0.01 {
		t.Errorf("low load: MVA %v vs MD1 %v diverge", mva, md1)
	}
}

func TestMVAResponseErrors(t *testing.T) {
	if _, err := MVAResponse(-1, 0, 1); err == nil {
		t.Error("negative tau accepted")
	}
	if _, err := MVAResponse(1, -1, 1); err == nil {
		t.Error("negative z accepted")
	}
	if _, err := MVAResponse(1, 0, 0); err == nil {
		t.Error("zero customers accepted")
	}
}

func TestBarrierSum(t *testing.T) {
	for _, p := range []int{-1, 0, 1} {
		if got := BarrierSum(p); got != 0 {
			t.Errorf("BarrierSum(%d) = %v, want 0", p, got)
		}
	}
	if got, want := BarrierSum(2), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("BarrierSum(2) = %v, want %v", got, want)
	}
	if got, want := BarrierSum(4), 0.5+1.0/3+0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("BarrierSum(4) = %v, want %v", got, want)
	}
}

func BenchmarkMD1Response(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MD1ResponseGuarded(50, 0.005, Guard{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMVAResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MVAResponse(50, 200, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSaturationGuard walks the M/D/1 response across the near-saturation
// boundary: ρ = 0.95 and ρ = 0.999 are admissible under
// the default guard, anything above the threshold trips ErrNearSaturated
// with the ρ context in the chain, and ρ >= 1 stays ErrSaturated.
func TestSaturationGuard(t *testing.T) {
	const tau = 50.0
	guard := Guard{MaxRho: DefaultMaxRho}
	cases := []struct {
		name    string
		rho     float64
		g       Guard
		wantErr error // nil means a finite response is required
	}{
		{"rho=0.95 default guard", 0.95, guard, nil},
		// 0.998999 rather than 0.999 exactly: λ = ρ/τ then λ·τ does not
		// round-trip in binary and can land a hair above the threshold.
		{"rho=0.998999 under threshold", 0.998999, guard, nil},
		{"rho=0.9995 near-saturated", 0.9995, guard, ErrNearSaturated},
		{"rho=1.0 saturated", 1.0, guard, ErrSaturated},
		{"rho=1.5 saturated", 1.5, guard, ErrSaturated},
		{"rho=0.9995 unguarded", 0.9995, Guard{}, nil},
		{"rho=1.0 unguarded", 1.0, Guard{}, ErrSaturated},
		{"rho=0.96 tight guard", 0.96, Guard{MaxRho: 0.95}, ErrNearSaturated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lambda := tc.rho / tau
			r, err := MD1ResponseGuarded(tau, lambda, tc.g)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error %v", err)
				}
				if r < tau || math.IsInf(r, 0) || math.IsNaN(r) {
					t.Errorf("MD1 response %v implausible at rho=%v", r, tc.rho)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want chain containing %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "rho=") {
				t.Errorf("error %q missing rho context", err)
			}
		})
	}
}

// TestGuardedMatchesUnguardedBelowThreshold checks the guard changes
// nothing in the admissible region.
func TestGuardedMatchesUnguardedBelowThreshold(t *testing.T) {
	for _, rho := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.998} {
		lambda := rho / 50
		plain, err1 := MD1ResponseGuarded(50, lambda, Guard{})
		guarded, err2 := MD1ResponseGuarded(50, lambda, Guard{MaxRho: DefaultMaxRho})
		if err1 != nil || err2 != nil {
			t.Fatalf("rho=%v: errors %v, %v", rho, err1, err2)
		}
		if plain != guarded {
			t.Errorf("rho=%v: guarded %v != unguarded %v", rho, guarded, plain)
		}
	}
}

// TestSaturationErrorCarriesRho checks the guard rejections are typed:
// errors.As must extract a SaturationError with the offending utilization
// and guard threshold, through both direct and wrapped chains, for the
// near-saturated and truly saturated regimes alike. This is what lets the
// prediction service report ρ in a structured JSON error body.
func TestSaturationErrorCarriesRho(t *testing.T) {
	const tau = 50.0
	cases := []struct {
		name     string
		rho      float64
		g        Guard
		sentinel error
		wantMax  float64
	}{
		{"near-saturated default guard", 0.9995, Guard{MaxRho: DefaultMaxRho}, ErrNearSaturated, DefaultMaxRho},
		{"near-saturated tight guard", 0.96, Guard{MaxRho: 0.95}, ErrNearSaturated, 0.95},
		{"saturated", 1.25, Guard{}, ErrSaturated, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lambda := tc.rho / tau
			_, err := MD1ResponseGuarded(tau, lambda, tc.g)
			if err == nil {
				t.Fatalf("rho=%v: expected a guard rejection", tc.rho)
			}
			// Wrap once more, the way core.Evaluate's fixed point does,
			// to prove the typed value survives %w chains.
			err = fmt.Errorf("core: saturated at solution: %w", err)
			var sat *SaturationError
			if !errors.As(err, &sat) {
				t.Fatalf("errors.As found no SaturationError in %v", err)
			}
			if math.Abs(sat.Rho-tc.rho) > 1e-12 {
				t.Errorf("Rho = %v, want %v", sat.Rho, tc.rho)
			}
			if sat.MaxRho != tc.wantMax {
				t.Errorf("MaxRho = %v, want %v", sat.MaxRho, tc.wantMax)
			}
			if sat.Tau != tau || math.Abs(sat.Lambda-lambda) > 1e-18 {
				t.Errorf("context (tau=%v, lambda=%v), want (%v, %v)", sat.Tau, sat.Lambda, tau, lambda)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("chain lost sentinel %v", tc.sentinel)
			}
			if sat.Unwrap() != tc.sentinel {
				t.Errorf("Unwrap() = %v, want %v", sat.Unwrap(), tc.sentinel)
			}
		})
	}
}
