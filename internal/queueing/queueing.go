// Package queueing provides the queueing-theoretic building blocks of the
// Du–Zhang cluster model: M/D/1 (and closed-network MVA) response times for
// contended memory-hierarchy levels, and the order-statistics barrier cost.
//
// All quantities are expressed in abstract time units (CPU cycles in this
// repository). An arrival rate is therefore in requests per cycle and a
// service time in cycles; their product is the offered load (utilization).
//
//chc:deterministic
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrSaturated is returned when the offered load at a queueing center is at
// or beyond 1, where the steady-state response time diverges.
var ErrSaturated = errors.New("queueing: server saturated (utilization >= 1)")

// ErrNearSaturated is returned by the guarded response functions when the
// offered load exceeds the guard's threshold but is still below 1: the
// formula remains finite there, yet its value is dominated by the 1/(1−ρ)
// pole and tiny rate errors produce wild response swings, so downstream
// consumers should treat such points as saturated rather than trust them.
var ErrNearSaturated = errors.New("queueing: server near saturation")

// DefaultMaxRho is the guard threshold the model uses: beyond ρ = 0.999
// the M/D/1 response exceeds 500 service times and the steady-state
// assumption has long stopped describing a bulk-synchronous phase.
const DefaultMaxRho = 0.999

// Guard bounds the admissible offered load of the open-queue formulas. The
// zero value only rejects true saturation (ρ >= 1), preserving the classic
// behavior; set MaxRho (e.g. DefaultMaxRho) to also reject near-saturated
// loads with an error chain carrying ErrNearSaturated and the ρ context.
type Guard struct {
	// MaxRho is the largest admissible utilization; 0 means 1 (reject
	// only exact saturation).
	MaxRho float64
}

// SaturationError is the typed rejection of the guarded response
// functions: it carries the offending utilization (and the guard in
// force) so callers can surface ρ structurally — e.g. in a JSON error
// body — instead of parsing the message. It wraps ErrSaturated or
// ErrNearSaturated, so existing errors.Is checks keep working.
type SaturationError struct {
	Rho    float64 // offered load λτ at the rejected operating point
	MaxRho float64 // guard threshold in force (1 for true saturation)
	Tau    float64 // service time
	Lambda float64 // arrival rate
	kind   error   // ErrSaturated or ErrNearSaturated
}

// Error renders the same message the untyped errors carried.
func (e *SaturationError) Error() string {
	if e.kind == ErrSaturated {
		return fmt.Sprintf("%v: rho=%.4f (tau=%v, lambda=%v)", e.kind, e.Rho, e.Tau, e.Lambda)
	}
	return fmt.Sprintf("%v: rho=%.6f exceeds guard %.6f (tau=%v, lambda=%v)",
		e.kind, e.Rho, e.MaxRho, e.Tau, e.Lambda)
}

// Unwrap exposes the sentinel (ErrSaturated or ErrNearSaturated).
func (e *SaturationError) Unwrap() error { return e.kind }

// NewSaturationError builds a SaturationError outside the guard machinery —
// e.g. a fault injector simulating a saturated backend. near selects the
// ErrNearSaturated sentinel (ρ beyond the guard but below 1) instead of
// ErrSaturated.
func NewSaturationError(rho, maxRho, tau, lambda float64, near bool) *SaturationError {
	kind := ErrSaturated
	if near {
		kind = ErrNearSaturated
	}
	return &SaturationError{Rho: rho, MaxRho: maxRho, Tau: tau, Lambda: lambda, kind: kind}
}

func (g Guard) maxRho() float64 {
	if g.MaxRho <= 0 {
		return 1
	}
	return g.MaxRho
}

// check validates the offered load rho against the guard.
func (g Guard) check(rho, tau, lambda float64) error {
	if rho >= 1 {
		return &SaturationError{Rho: rho, MaxRho: 1, Tau: tau, Lambda: lambda, kind: ErrSaturated}
	}
	if max := g.maxRho(); rho > max {
		return &SaturationError{Rho: rho, MaxRho: max, Tau: tau, Lambda: lambda, kind: ErrNearSaturated}
	}
	return nil
}

// MD1ResponseGuarded returns the mean response time (queueing delay plus
// service) of an M/D/1 queue with deterministic service time tau and
// Poisson arrival rate lambda from competing requesters.
//
// This is the form used throughout Du & Zhang's paper (their eq. for t2(o)):
//
//	R = (tau - lambda*tau^2/2) / (1 - lambda*tau)
//
// which equals tau + lambda*tau^2 / (2*(1-rho)), the Pollaczek–Khinchine
// mean response with zero service variance. With lambda == 0 it reduces to
// tau: an uncontended access costs exactly its service time.
//
// Offered loads at or beyond 1 return an error wrapping ErrSaturated; loads
// beyond g.MaxRho (but below 1) return one wrapping ErrNearSaturated
// instead of a numerically meaningless response. Guard{} only rejects
// saturation.
func MD1ResponseGuarded(tau, lambda float64, g Guard) (float64, error) {
	if tau < 0 {
		return 0, fmt.Errorf("queueing: negative service time %v", tau)
	}
	if lambda < 0 {
		return 0, fmt.Errorf("queueing: negative arrival rate %v", lambda)
	}
	rho := lambda * tau
	if err := g.check(rho, tau, lambda); err != nil {
		return 0, err
	}
	return (tau - 0.5*lambda*tau*tau) / (1 - rho), nil
}

// Utilization returns the offered load lambda*tau.
func Utilization(tau, lambda float64) float64 { return lambda * tau }

// MVAResponse returns the mean response time at a single queueing center
// visited by n statistically identical customers, each alternating between
// z cycles of think time and one service demand of tau cycles, computed by
// exact Mean Value Analysis:
//
//	R(1) = tau
//	R(k) = tau · (1 + Q(k−1)),   Q(k) = k·R(k) / (R(k) + z)
//
// Unlike the open M/D/1 model, the closed system never saturates: a blocked
// customer stops generating load, so R(n) ≤ n·tau always. This is the
// alternative contention model for the processors-sharing-a-bus setting
// (each processor has at most one outstanding blocking reference).
func MVAResponse(tau, z float64, n int) (float64, error) {
	if tau < 0 {
		return 0, fmt.Errorf("queueing: negative service time %v", tau)
	}
	if z < 0 {
		return 0, fmt.Errorf("queueing: negative think time %v", z)
	}
	if n < 1 {
		return 0, fmt.Errorf("queueing: need at least one customer, got %d", n)
	}
	r := tau
	q := 0.0
	for k := 1; k <= n; k++ {
		r = tau * (1 + q)
		q = float64(k) * r / (r + z)
	}
	return r, nil
}

// Harmonic returns the n-th harmonic number H(n) = 1 + 1/2 + ... + 1/n.
// Harmonic(0) is 0.
func Harmonic(n int) float64 {
	if n <= 0 {
		return 0
	}
	// Direct summation is exact enough and cheap for the small n used in
	// cluster configurations; fall back to the asymptotic expansion for
	// very large n to keep the function O(1) in degenerate sweeps.
	if n <= 1<<16 {
		s := 0.0
		for i := n; i >= 1; i-- { // sum small terms first for accuracy
			s += 1 / float64(i)
		}
		return s
	}
	const gamma = 0.57721566490153286060651209008240243
	x := float64(n)
	return math.Log(x) + gamma + 1/(2*x) - 1/(12*x*x)
}

// BarrierSum returns the paper's folded barrier term 1/2 + 1/3 + ... + 1/p,
// i.e. H(p) − 1, the dimensionless part of the barrier wait. It is the
// quantity added inside eq. (11) of the paper: when p processes reach a
// barrier at exponential intervals of rate lambdaB, the barrier cycle is
// the expected maximum of p exponentials, H(p)/lambdaB, so a process waits
// (H(p) − 1)/lambdaB beyond its own arrival. For p <= 1 it is 0.
func BarrierSum(p int) float64 {
	if p <= 1 {
		return 0
	}
	return Harmonic(p) - 1
}
