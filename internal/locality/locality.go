// Package locality models program locality the way Du & Zhang's paper does:
// the cumulative stack-distance distribution is approximated by
//
//	P(x) = 1 − (x/β + 1)^−(α−1),  α > 1, β > 0,          (paper eq. 1)
//
// with density
//
//	p(x) = (α−1)/β · (x/β + 1)^−α,                        (paper eq. 2)
//
// plus the memory-reference fraction γ = M/(m+M). The package fits (α, β)
// to an empirical CDF by damped Gauss–Newton (Levenberg–Marquardt) least
// squares, built from scratch on the standard library.
//
//chc:deterministic
package locality

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Params characterizes a workload: the locality parameters α and β of the
// paper's stack-distance model and the memory-reference fraction γ.
// Locality improves as α grows or β shrinks.
type Params struct {
	Alpha float64 `json:"alpha"` // decay exponent, > 1
	Beta  float64 `json:"beta"`  // scale (characteristic stack distance), > 0
	Gamma float64 `json:"gamma"` // fraction of instructions that reference memory, in [0, 1]
}

// Validate reports whether the parameters are inside the model's domain.
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.Alpha) || p.Alpha <= 1:
		return fmt.Errorf("locality: alpha must be > 1, got %v", p.Alpha)
	case math.IsNaN(p.Beta) || p.Beta <= 0:
		return fmt.Errorf("locality: beta must be > 0, got %v", p.Beta)
	case math.IsNaN(p.Gamma) || p.Gamma < 0 || p.Gamma > 1:
		return fmt.Errorf("locality: gamma must be in [0,1], got %v", p.Gamma)
	}
	return nil
}

// CDF returns P(x), the probability that a reference's stack distance is
// within x (paper eq. 1). Negative x yields 0.
func (p Params) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 - math.Pow(x/p.Beta+1, -(p.Alpha-1))
}

// Density returns p(x), the stack-distance probability density
// (paper eq. 2).
func (p Params) Density(x float64) float64 {
	if x < 0 {
		return 0
	}
	return (p.Alpha - 1) / p.Beta * math.Pow(x/p.Beta+1, -p.Alpha)
}

// MissBeyond returns ∫_s^∞ p(x) dx = (s/β + 1)^−(α−1): the fraction of
// memory references whose reuse distance exceeds a capacity s — the miss
// ratio of a fully associative LRU level of size s. This is the integral
// appearing in the paper's eq. (7) and (11).
func (p Params) MissBeyond(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return math.Pow(s/p.Beta+1, -(p.Alpha - 1))
}

// Coverage returns the stack distance x at which P(x) = p, i.e. the
// capacity needed to capture fraction p of references: the model's
// "effective working set" at coverage p. p must be in (0, 1).
func (pm Params) Coverage(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("locality: coverage fraction %v out of (0,1)", p)
	}
	return pm.Beta * (math.Pow(1-p, -1/(pm.Alpha-1)) - 1), nil
}

// Rescale returns the parameters of the same application split across
// nproc symmetric processes. Per the paper (§5.2), the maximum stack
// distance shrinks by the processor count while cumulative probabilities
// hold, i.e. P(x) = 1 − (nproc·x/β + 1)^−(α−1), which is a β → β/nproc
// rescale. Gamma is unchanged. nproc < 1 is treated as 1.
func (p Params) Rescale(nproc int) Params {
	if nproc <= 1 {
		return p
	}
	return Params{Alpha: p.Alpha, Beta: p.Beta / float64(nproc), Gamma: p.Gamma}
}

// FitStats summarizes fit quality.
type FitStats struct {
	RMSE       float64 `json:"rmse"`       // root mean squared residual of the CDF fit
	R2         float64 `json:"r2"`         // coefficient of determination
	Iterations int     `json:"iterations"` // LM iterations used
	Points     int     `json:"points"`     // number of fitted points
}

// FitOptions tunes the least-squares fit. The zero value selects sensible
// defaults.
type FitOptions struct {
	MaxIter int       // maximum LM iterations per start (default 200)
	Tol     float64   // relative SSE improvement tolerance (default 1e-12)
	Weights []float64 // optional per-point weights (e.g. reference counts)
}

// Fit estimates (α, β) from empirical CDF points: ps[i] ≈ P(xs[i]).
// Probabilities must lie in [0, 1]; at least two points with distinct xs
// are required. Gamma in the result is zero — it comes from instruction
// counting, not from the curve (use Params.Gamma directly).
//
// The optimizer is Levenberg–Marquardt over the reparameterization
// α = 1+e^a, β = e^b (which keeps iterates in-domain), started from a small
// grid of initial guesses to dodge local minima.
func Fit(xs, ps []float64, opts FitOptions) (Params, FitStats, error) {
	if len(xs) != len(ps) {
		return Params{}, FitStats{}, fmt.Errorf("locality: len(xs)=%d != len(ps)=%d", len(xs), len(ps))
	}
	if len(xs) < 2 {
		return Params{}, FitStats{}, errors.New("locality: need at least two points to fit")
	}
	w := opts.Weights
	if w != nil && len(w) != len(xs) {
		return Params{}, FitStats{}, fmt.Errorf("locality: len(weights)=%d != len(xs)=%d", len(w), len(xs))
	}
	distinct := false
	for i := range xs {
		if math.IsNaN(xs[i]) || xs[i] < 0 {
			return Params{}, FitStats{}, fmt.Errorf("locality: invalid x[%d]=%v", i, xs[i])
		}
		if math.IsNaN(ps[i]) || ps[i] < 0 || ps[i] > 1 {
			return Params{}, FitStats{}, fmt.Errorf("locality: invalid p[%d]=%v", i, ps[i])
		}
		// Exact identity on raw inputs, not on arithmetic results: any
		// bitwise difference between two x values is enough to fit a line.
		//chc:allow floateq -- degenerate-input guard compares identities
		if i > 0 && xs[i] != xs[0] {
			distinct = true
		}
	}
	if !distinct {
		return Params{}, FitStats{}, errors.New("locality: all x values identical")
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-12
	}

	// Initial guesses: alpha around typical scientific-code values, beta
	// seeded by the median distance.
	betaSeed := median(xs)
	if betaSeed < 1 {
		betaSeed = 1
	}
	type start struct{ alpha, beta float64 }
	starts := []start{
		{1.2, betaSeed}, {1.5, betaSeed}, {2.0, betaSeed},
		{1.2, betaSeed / 8}, {1.5, betaSeed * 8}, {3.0, betaSeed / 2},
	}

	// The starts are independent descents; they run concurrently and are
	// reduced in start order, so the result does not depend on scheduling.
	fits := make([]startFit, len(starts))
	var wg sync.WaitGroup
	for i, s := range starts {
		wg.Add(1)
		go func(i int, alpha, beta float64) {
			defer wg.Done()
			fits[i] = descend(xs, ps, w, alpha, beta, maxIter, tol)
		}(i, s.alpha, s.beta)
	}
	wg.Wait()
	best := Params{Alpha: math.NaN()}
	bestSSE := math.Inf(1)
	bestIter := 0
	for _, f := range fits {
		if f.sse < bestSSE {
			bestSSE = f.sse
			best = Params{Alpha: 1 + math.Exp(f.a), Beta: math.Exp(f.b)}
			bestIter = f.iters
		}
	}
	if math.IsNaN(best.Alpha) {
		return Params{}, FitStats{}, errors.New("locality: fit failed to converge from any start")
	}

	stats := FitStats{Iterations: bestIter, Points: len(xs)}
	stats.RMSE = math.Sqrt(bestSSE / totalWeight(w, len(xs)))
	// R^2 against the (weighted) mean of the observations.
	mean := 0.0
	tw := 0.0
	for i := range ps {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		mean += wi * ps[i]
		tw += wi
	}
	mean /= tw
	var sst float64
	for i := range ps {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		d := ps[i] - mean
		sst += wi * d * d
	}
	if sst > 0 {
		stats.R2 = 1 - bestSSE/sst
	} else {
		stats.R2 = 1
	}
	return best, stats, nil
}

// startFit is one start's Levenberg–Marquardt descent result, in the
// reparameterized space a = ln(α−1), b = ln β.
type startFit struct {
	a, b, sse float64
	iters     int
}

// descend runs damped Gauss–Newton from (alpha, beta) until no step
// improves the SSE, the SSE reaches tol, or maxIter iterations.
func descend(xs, ps, w []float64, alpha0, beta0 float64, maxIter int, tol float64) startFit {
	a := math.Log(alpha0 - 1)
	b := math.Log(beta0)
	sse := sseAt(xs, ps, w, a, b)
	lambda := 1e-3
	iters := 0
	for ; iters < maxIter; iters++ {
		// Build the 2x2 normal equations J'J + lambda*diag, J'r.
		var jtj00, jtj01, jtj11, jtr0, jtr1 float64
		ea := math.Exp(a)
		alpha := 1 + ea
		beta := math.Exp(b)
		for i := range xs {
			u := xs[i]/beta + 1
			pu := math.Pow(u, -(alpha - 1))
			pm := 1 - pu
			r := ps[i] - pm
			lnu := math.Log(u)
			// dP/da = dP/dalpha * dalpha/da = u^-(alpha-1)*ln(u) * e^a
			dA := pu * lnu * ea
			// dP/db = dP/dbeta * beta; dP/dbeta = -(alpha-1)*u^-alpha*x/beta^2
			dB := -(alpha - 1) * math.Pow(u, -alpha) * xs[i] / beta
			wi := 1.0
			if w != nil {
				wi = w[i]
			}
			jtj00 += wi * dA * dA
			jtj01 += wi * dA * dB
			jtj11 += wi * dB * dB
			jtr0 += wi * dA * r
			jtr1 += wi * dB * r
		}
		improved := false
		for try := 0; try < 8; try++ {
			m00 := jtj00 + lambda*(jtj00+1e-12)
			m11 := jtj11 + lambda*(jtj11+1e-12)
			det := m00*m11 - jtj01*jtj01
			if det == 0 || math.IsNaN(det) {
				lambda *= 10
				continue
			}
			da := (jtr0*m11 - jtr1*jtj01) / det
			db := (jtr1*m00 - jtr0*jtj01) / det
			na, nb := a+da, b+db
			// Clamp the reparameterized space to avoid overflow.
			na = clamp(na, -20, 20)
			nb = clamp(nb, -20, 40)
			nsse := sseAt(xs, ps, w, na, nb)
			if nsse < sse {
				a, b, sse = na, nb, nsse
				lambda = math.Max(lambda/4, 1e-12)
				improved = true
				break
			}
			lambda *= 10
		}
		if !improved {
			break
		}
		if sse <= tol {
			break
		}
	}
	return startFit{a: a, b: b, sse: sse, iters: iters}
}

func sseAt(xs, ps, w []float64, a, b float64) float64 {
	alpha := 1 + math.Exp(a)
	beta := math.Exp(b)
	var sse float64
	for i := range xs {
		pm := 1 - math.Pow(xs[i]/beta+1, -(alpha-1))
		r := ps[i] - pm
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		sse += wi * r * r
	}
	return sse
}

func totalWeight(w []float64, n int) float64 {
	if w == nil {
		return float64(n)
	}
	t := 0.0
	for _, v := range w {
		t += v
	}
	if t == 0 {
		return float64(n)
	}
	return t
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	// insertion-free selection: simple sort is fine for fit-sized data
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
