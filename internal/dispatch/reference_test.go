package dispatch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
)

// The dual search is defined by the reference midpoint bisection: a cold
// total(0) test, hi grown from 1, then dualBisect. These tests hold the
// warm-started cell search to that definition bit for bit — ν*, cost and
// every volume — for every monotone cost family and for any hint.

// referenceDual is the hint-free reference search over sv's resolved plans.
func referenceDual(sv *Solver, lambda float64) float64 {
	if sv.total(0) >= lambda {
		return 0
	}
	hi := 1.0
	v := sv.total(hi)
	for hi < maxDualHi && v < lambda {
		hi *= 2
		v = sv.total(hi)
	}
	if v <= lambda {
		return hi
	}
	return sv.dualBisect(hi, lambda)
}

// resolved returns a Solver whose plans cover the active types of
// servers other than skip (-1 for none), ready for total and fillVolumes.
func resolved(servers []Server, skip int) *Solver {
	var sv Solver
	for j, s := range servers {
		if j != skip && s.Active > 0 && s.Cap > 0 {
			sv.active = append(sv.active, j)
		}
	}
	sv.resolvePlans(servers)
	return &sv
}

// reachesDual reports whether solve(servers, lambda) runs the dual search:
// positive demand, enough capacity and at least two active types.
func reachesDual(servers []Server, lambda float64) bool {
	totalCap, active := 0.0, 0
	for _, s := range servers {
		if s.Active > 0 {
			totalCap += float64(s.Active) * s.Cap
			if s.Cap > 0 {
				active++
			}
		}
	}
	return lambda > 0 && totalCap >= lambda*(1-1e-12) && active >= 2
}

// checkReference solves servers at lambda with the given hint and
// compares ν*, the cost and the volumes with the reference search.
func checkReference(t *testing.T, servers []Server, lambda float64, hint Warm) {
	t.Helper()
	if !reachesDual(servers, lambda) {
		return
	}
	var fast Solver
	fast.SetWarm(hint)
	var got Assignment
	fast.AssignInto(servers, lambda, &got)

	ref := resolved(servers, -1)
	nu := referenceDual(ref, lambda)
	y := make([]float64, len(servers))
	ref.fillVolumes(servers, lambda, nu, y)
	cost := 0.0
	for _, j := range ref.active {
		cost += phi(servers[j], y[j])
	}

	if gotNu := fast.Warm().Nu; math.Float64bits(gotNu) != math.Float64bits(nu) {
		t.Fatalf("ν* %v != reference %v (λ=%v, hint=%+v, servers=%+v)", gotNu, nu, lambda, hint, servers)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(cost) {
		t.Fatalf("cost %v != reference %v (λ=%v, hint=%+v, servers=%+v)", got.Cost, cost, lambda, hint, servers)
	}
	for j := range y {
		if math.Float64bits(got.Y[j]) != math.Float64bits(y[j]) {
			t.Fatalf("Y[%d] %v != reference %v (λ=%v, hint=%+v, servers=%+v)", j, got.Y[j], y[j], lambda, hint, servers)
		}
	}
}

// monotoneFunc draws a cost function from every family with a monotone
// total: the invertible ones (Constant, Affine, Power incl. Exp 1 and 2,
// Exponential, PiecewiseLinear, Scaled wraps) and a derivative-only one.
// Affine Rate 0.5 puts its jump on a dyadic edge for every bracket; Rate
// 0.6 puts it off every edge.
func monotoneFunc(rng *rand.Rand) costfn.Func {
	switch rng.Intn(12) {
	case 0:
		return costfn.Constant{C: 5 * rng.Float64()}
	case 1:
		return costfn.Affine{Idle: 3 * rng.Float64(), Rate: 4 * rng.Float64()}
	case 2:
		return costfn.Affine{Idle: 1, Rate: 0.5}
	case 3:
		return costfn.Affine{Idle: 1.5, Rate: 0.6}
	case 4:
		return costfn.Power{Idle: rng.Float64(), Coef: 0.2 + 2*rng.Float64(), Exp: 1 + 2.5*rng.Float64()}
	case 5:
		return costfn.Power{Idle: rng.Float64(), Coef: 0.2 + 2*rng.Float64(), Exp: 1}
	case 6:
		return costfn.Power{Idle: 2.5, Coef: 0.3, Exp: 2}
	case 7:
		return costfn.Exponential{Idle: rng.Float64(), Amp: 0.2 + rng.Float64(), Rate: 0.3 + rng.Float64()}
	case 8:
		s1 := 0.1 + rng.Float64()
		s2 := s1 + rng.Float64()
		return costfn.MustPiecewiseLinear([]float64{0, 0.5, 1.5}, []float64{1, 1 + 0.5*s1, 1 + 0.5*s1 + s2})
	case 9:
		return costfn.Scaled{F: costfn.Affine{Idle: 1, Rate: 0.5 + rng.Float64()}, Factor: 0.3 + 2*rng.Float64()}
	case 10:
		return costfn.Scaled{F: costfn.Power{Idle: rng.Float64(), Coef: 0.5 + rng.Float64(), Exp: 2}, Factor: 0.3 + 2*rng.Float64()}
	default:
		return diffOnly{p: costfn.Power{Idle: rng.Float64(), Coef: 0.3 + rng.Float64(), Exp: 1.5 + rng.Float64()}}
	}
}

// jumpDemand returns a demand that crosses inside the volume jump of a
// constant-marginal type j at its rate r: the other types' volumes at r
// plus a fraction frac of type j's capacity. It returns false when no
// active type has a constant marginal cost.
func jumpDemand(servers []Server, pick int, frac float64) (float64, bool) {
	for off := range servers {
		j := (pick + off) % len(servers)
		s := servers[j]
		d, ok := costfn.AsDifferentiable(s.F)
		if !ok || s.Active == 0 || d.Deriv(0) != d.Deriv(s.Cap) {
			continue
		}
		others := resolved(servers, j).total(math.Nextafter(d.Deriv(0), 0))
		return others + frac*float64(s.Active)*s.Cap, true
	}
	return 0, false
}

// absurdHints are hints a search must shrug off: brackets far too big or
// small or not a power of two, duals outside the bracket, NaN and ±Inf.
func absurdHints(nu float64) []Warm {
	return []Warm{
		{},
		{Hi: 1, Nu: 0},
		{Hi: math.Ldexp(1, 120), Nu: nu},
		{Hi: math.Ldexp(1, 200), Nu: 1e300},
		{Hi: 0.25, Nu: nu},
		{Hi: 3, Nu: nu},
		{Hi: 1, Nu: -2},
		{Hi: math.NaN(), Nu: math.NaN()},
		{Hi: math.Inf(1), Nu: math.Inf(1)},
		{Hi: 4, Nu: 1e-300},
		{Hi: 64, Nu: 63.999},
	}
}

// edgeHints are hints at and around the reference dual: the answer itself,
// its cell's two edges, the neighbouring cells, and brackets one power of
// two off in either direction.
func edgeHints(hi, nu float64) []Warm {
	h := math.Ldexp(hi, -dualBits)
	k := math.Floor(nu / h)
	return []Warm{
		{Hi: hi, Nu: nu},
		{Hi: hi, Nu: k * h},
		{Hi: hi, Nu: (k + 1) * h},
		{Hi: hi, Nu: (k - 1) * h},
		{Hi: hi, Nu: (k + 2) * h},
		{Hi: hi, Nu: 0},
		{Hi: 2 * hi, Nu: nu},
		{Hi: hi / 2, Nu: nu},
		{Hi: hi, Nu: nu * (1 + 1e-3)},
		{Hi: hi, Nu: nu * (1 - 1e-3)},
	}
}

// refHint returns the reference solve's (hi, ν*) for servers at lambda.
func refHint(servers []Server, lambda float64) Warm {
	var sv Solver
	sv.Cost(servers, lambda)
	return sv.Warm()
}

func TestCellSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		d := 2 + rng.Intn(3)
		servers := make([]Server, d)
		totalCap := 0.0
		for j := range servers {
			servers[j] = Server{Active: 1 + rng.Intn(8), Cap: 0.25 + 4*rng.Float64(), F: monotoneFunc(rng)}
			totalCap += float64(servers[j].Active) * servers[j].Cap
		}
		lambdas := []float64{rng.Float64() * totalCap, rng.Float64() * totalCap}
		for _, frac := range []float64{0, 1, rng.Float64()} {
			if l, ok := jumpDemand(servers, rng.Intn(d), frac); ok {
				lambdas = append(lambdas, l)
			}
		}
		for _, lambda := range lambdas {
			w := refHint(servers, lambda)
			for _, hint := range append(edgeHints(math.Max(w.Hi, 1), w.Nu), absurdHints(w.Nu)...) {
				checkReference(t, servers, lambda, hint)
			}
		}
	}
}

// TestCellSearchWalkMatchesReference follows lattice lines with one
// warm-started Solver — the way a DP sweep uses it — and checks each solve
// against the reference.
func TestCellSearchWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(2)
		servers := make([]Server, d)
		for j := range servers {
			servers[j] = Server{Active: rng.Intn(6), Cap: 0.5 + 2*rng.Float64(), F: monotoneFunc(rng)}
		}
		lambda := 1 + 8*rng.Float64()
		var sv Solver
		for x := 0; x <= 12; x++ {
			servers[d-1].Active = x
			hint := sv.Warm()
			sv.Cost(servers, lambda)
			checkReference(t, servers, lambda, hint)
		}
	}
}

// FuzzDualReference holds the cell search to the reference over arbitrary
// fleets, demands and hints. lambdaFrac < 0 asks for a demand inside a
// constant-marginal type's jump (fraction jumpFrac of its capacity).
func FuzzDualReference(f *testing.F) {
	f.Add(int64(1), 0.4, 0.5, 2.0, 0.5)
	f.Add(int64(2), -1.0, 0.0, 1.0, 0.5)    // demand at the bottom of a jump
	f.Add(int64(3), -1.0, 1.0, 1.0, 0.6)    // demand at the top of a jump
	f.Add(int64(4), -1.0, 0.5, 4.0, 0.5)    // jump on a dyadic edge, hint on it
	f.Add(int64(5), -1.0, 0.25, 1.0, 0.6)   // jump off every edge
	f.Add(int64(6), 0.9, 0.5, 3.0, 1e300)   // non-power-of-two bracket
	f.Add(int64(7), 0.2, 0.5, 1e-3, -1.0)   // bracket below 1, negative dual
	f.Add(int64(8), 0.7, 0.5, 1e60, 1e-300) // bracket far too big
	f.Fuzz(func(t *testing.T, seed int64, lambdaFrac, jumpFrac, hintHi, hintNu float64) {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		servers := make([]Server, d)
		totalCap := 0.0
		for j := range servers {
			servers[j] = Server{Active: rng.Intn(8), Cap: 0.2 + 3*rng.Float64(), F: monotoneFunc(rng)}
			totalCap += float64(servers[j].Active) * servers[j].Cap
		}
		lambda := sanitize(lambdaFrac, 0, 1.1) * totalCap
		if lambdaFrac < 0 {
			if !(jumpFrac >= 0 && jumpFrac <= 1) {
				jumpFrac = sanitize(jumpFrac, 0, 1)
			}
			l, ok := jumpDemand(servers, rng.Intn(d), jumpFrac)
			if !ok {
				return
			}
			lambda = l
		}
		checkReference(t, servers, lambda, Warm{Hi: hintHi, Nu: hintNu})
		w := refHint(servers, lambda)
		for _, hint := range edgeHints(math.Max(w.Hi, 1), w.Nu) {
			checkReference(t, servers, lambda, hint)
		}
	})
}
