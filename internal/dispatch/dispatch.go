// Package dispatch solves the intra-slot load-assignment problem of the
// right-sizing model: given the numbers of active servers per type, split
// the arriving job volume λ across the types so the total operating cost is
// minimal. This evaluates the paper's Equation (1),
//
//	g_t(x_1, …, x_d) = min_{z ∈ Z} Σ_j g_{t,j}(x_j, z_j),
//
// where Z is the probability simplex over the d types and
// g_{t,j}(x, z) = x·f_{t,j}(λ_t z / x). By Lemma 2 (Jensen), jobs assigned
// to a type are spread evenly over its active servers, which is what the
// x·f(λz/x) form encodes.
//
// Substituting y_j = λ z_j turns the problem into a separable convex
// program with one coupling constraint:
//
//	min Σ_j φ_j(y_j)   s.t.  Σ_j y_j = λ,  0 ≤ y_j ≤ x_j·zmax_j,
//	φ_j(y) = x_j · f_j(y / x_j).
//
// The solver performs water-filling on the dual: for a multiplier ν, each
// type's optimal volume y_j(ν) is the largest y with φ'_j(y) ≤ ν, clamped
// to its capacity; Σ_j y_j(ν) is non-decreasing in ν, so an outer root
// search finds the ν* that meets the demand. Cost functions implementing
// costfn.Invertible give y_j(ν) in closed form; differentiable functions
// use derivative bisection; opaque functions fall back to golden-section
// search on the Lagrangian.
//
// # Canonical duals and warm starts
//
// The dual search defines its answer combinatorially so that it does not
// depend on how the root is located: with hi the smallest power of two in
// [1, 2^200] whose absorbed volume covers λ and h = hi/2^47, the canonical
// ν* is the midpoint of the unique dyadic cell [k·h, (k+1)·h] where the
// absorbed volume crosses λ (exactly the final bracket of a classic
// midpoint bisection of [0, hi] to the legacy 1e-14·hi tolerance). Any
// correct bracketing search lands on the same cell, so a Solver may carry
// the previous solve's (hi, ν*) as a warm start — walking a DP lattice
// line in grid order moves ν* monotonically and slowly — and still return
// results bit-for-bit identical to a cold solve.
//
// The search therefore runs on the integer cell index k ∈ [0, 2^47]
// itself, evaluating the absorbed volume only at cell edges k·h until the
// bracket is one cell wide. It probes the warm dual's cell first, then the
// secant estimate's, then the cost functions' jump and saturation points,
// with bisection on k as the safeguard: a few evaluations per solve on a
// DP sweep, where a float bracket needed dozens.
package dispatch

import (
	"math"

	"repro/internal/costfn"
	"repro/internal/numeric"
)

// Server describes one server type's state within a single time slot.
type Server struct {
	Active int         // number of active servers x_j (>= 0)
	Cap    float64     // per-server capacity zmax_j (> 0)
	F      costfn.Func // operating-cost function f_{t,j} for this slot
}

// Assignment is the result of an optimal load split.
type Assignment struct {
	// Cost is g_t(x): the minimal total operating cost. It is +Inf when
	// the active servers cannot absorb the demand (infeasible slot) and 0
	// only if every type is inactive and the demand is zero.
	Cost float64
	// Y[j] is the job volume routed to type j; Σ Y = λ for feasible calls.
	Y []float64
	// Z[j] is the fraction of λ routed to type j (Y[j]/λ); all zero when
	// λ = 0.
	Z []float64
}

// Assign computes the optimal split of job volume lambda across the server
// types. It never mutates its input. The semantics at the edges follow the
// paper's definition of g_{t,j}:
//   - lambda == 0: nothing to route; cost is the idle cost of all active
//     servers.
//   - lambda > 0 with zero total capacity: cost +Inf (x_j = 0 and
//     λ_t z_j > 0 is forbidden, and capacities bound the rest).
//
// Assign allocates its result; inside hot loops use Solver.Cost or
// Solver.AssignInto, which reuse buffers.
func Assign(servers []Server, lambda float64) Assignment {
	var sv Solver
	var res Assignment
	sv.AssignInto(servers, lambda, &res)
	return res
}

// Warm carries the dual bracket of a previous solve as a starting hint for
// the next one. The zero value means "no hint" (cold solve). Warm starts
// never change results — the dual search's answer is canonical (see the
// package comment) — they only cut the number of water-filling
// evaluations when consecutive solves have nearby duals.
type Warm struct {
	// Hi is the previous solve's dyadic upper bracket (a power of two).
	Hi float64
	// Nu is the previous solve's dual multiplier ν*.
	Nu float64
}

// Solver evaluates optimal assignment costs while reusing internal scratch
// buffers across calls, and carries the previous solve's dual as a warm
// start for the next one. The zero value is ready to use. A Solver is not
// safe for concurrent use; create one per goroutine.
type Solver struct {
	active []int
	lo, hi []float64
	y      []float64
	plans  []plan
	opaque bool // any plan on the golden-section fallback this solve
	warm   Warm
}

// Cost returns g_t(x) — the minimal operating cost of routing volume
// lambda to the given active servers — without allocating. Consecutive
// calls warm-start each other; results are identical to a cold solve.
func (sv *Solver) Cost(servers []Server, lambda float64) float64 {
	if cap(sv.y) < len(servers) {
		sv.y = make([]float64, len(servers))
	}
	return sv.solve(servers, lambda, sv.y[:len(servers)])
}

// AssignInto computes Assign's result into res, reusing its Y/Z buffers —
// the allocation-free path for callers that hold an Assignment across
// calls (model.Evaluator.Split reports per-slot load splits through it).
func (sv *Solver) AssignInto(servers []Server, lambda float64, res *Assignment) {
	d := len(servers)
	if cap(res.Y) < d {
		res.Y = make([]float64, d)
	}
	if cap(res.Z) < d {
		res.Z = make([]float64, d)
	}
	res.Y, res.Z = res.Y[:d], res.Z[:d]
	res.Cost = sv.solve(servers, lambda, res.Y)
	for j := range res.Z {
		res.Z[j] = 0
	}
	if lambda > 0 {
		for j := range res.Z {
			res.Z[j] = res.Y[j] / lambda
		}
	}
}

// Warm returns the dual warm-start state left by the last solve.
func (sv *Solver) Warm() Warm { return sv.warm }

// SetWarm installs a warm-start hint, typically taken from a neighbouring
// solve's Warm(). Invalid hints are ignored by the search.
func (sv *Solver) SetWarm(w Warm) { sv.warm = w }

// ResetWarm clears the warm-start state (the next solve runs cold).
func (sv *Solver) ResetWarm() { sv.warm = Warm{} }

// solve computes the optimal cost and writes the per-type volumes into y
// (which must have len(servers) entries).
func (sv *Solver) solve(servers []Server, lambda float64, y []float64) float64 {
	if lambda < 0 {
		panic("dispatch: negative job volume")
	}
	for j := range y {
		y[j] = 0
	}

	idle := 0.0
	totalCap := 0.0
	for _, s := range servers {
		if s.Active < 0 {
			panic("dispatch: negative active-server count")
		}
		if s.Active > 0 {
			idle += float64(s.Active) * s.F.Value(0)
			totalCap += float64(s.Active) * s.Cap
		}
	}

	if lambda == 0 {
		return idle
	}
	if totalCap < lambda*(1-1e-12) {
		return math.Inf(1)
	}

	sv.active = sv.active[:0]
	for j, s := range servers {
		if s.Active > 0 && s.Cap > 0 {
			sv.active = append(sv.active, j)
		}
	}
	if len(sv.active) == 1 {
		j := sv.active[0]
		y[j] = math.Min(lambda, float64(servers[j].Active)*servers[j].Cap)
		return phi(servers[j], y[j])
	}

	sv.resolvePlans(servers)
	nuStar := sv.solveDual(lambda)
	sv.fillVolumes(servers, lambda, nuStar, y)

	// phi(s, y) is the complete cost (idle + load) of a type's active
	// servers, so summing over active types is the whole slot cost.
	cost := 0.0
	for _, j := range sv.active {
		cost += phi(servers[j], y[j])
	}
	return cost
}

// phi evaluates φ_j(y) = x_j f_j(y/x_j), the total cost of type j's active
// servers when routed volume y.
func phi(s Server, y float64) float64 {
	x := float64(s.Active)
	if y <= 0 {
		return x * s.F.Value(0)
	}
	return x * s.F.Value(y/x)
}

// plan caches the resolved evaluation strategy of one active type for the
// duration of a solve, so the dual search does not re-unwrap cost-function
// interfaces on every probe.
type plan struct {
	kind uint8   // planInvertible | planDifferentiable | planOpaque
	x    float64 // float64(Active)
	cap  float64 // x·Cap
	srv  Server

	inv costfn.Invertible

	deriv    func(float64) float64 // hoisted Deriv for the bisection path
	d0, dcap float64               // Deriv(0), Deriv(Cap)

	lag func(float64) float64 // per-solve Lagrangian for the opaque path
	nu  float64               // multiplier read by lag
}

const (
	planInvertible = iota
	planDifferentiable
	planOpaque
)

// resolvePlans rebuilds sv.plans for the active types, in active order.
func (sv *Solver) resolvePlans(servers []Server) {
	if cap(sv.plans) < len(sv.active) {
		sv.plans = make([]plan, len(sv.active))
	}
	sv.plans = sv.plans[:len(sv.active)]
	sv.opaque = false
	for i, j := range sv.active {
		s := servers[j]
		p := &sv.plans[i]
		x := float64(s.Active)
		p.x, p.cap, p.srv = x, x*s.Cap, s
		p.lag = nil
		if inv, ok := costfn.AsInvertible(s.F); ok {
			p.kind, p.inv = planInvertible, inv
		} else if diff, ok := costfn.AsDifferentiable(s.F); ok {
			p.kind = planDifferentiable
			p.deriv = diff.Deriv
			p.d0, p.dcap = diff.Deriv(0), diff.Deriv(s.Cap)
		} else {
			p.kind = planOpaque
			p.lag = func(y float64) float64 { return phi(p.srv, y) - p.nu*y }
			sv.opaque = true
		}
	}
}

// volumeAt returns y_j(ν): the volume type j absorbs at dual multiplier ν.
// It is the minimiser of φ_j(y) − ν·y over [0, cap_j], which for convex φ
// is the largest y in the capacity interval with φ'_j(y) ≤ ν.
func (p *plan) volumeAt(nu float64) float64 {
	switch p.kind {
	case planInvertible:
		z := p.inv.InvDeriv(nu) // φ'(y) = f'(y/x) ≤ ν  ⇔  y ≤ x·InvDeriv(ν)
		return numeric.Clamp(p.x*z, 0, p.cap)
	case planDifferentiable:
		if p.d0 >= nu {
			return 0
		}
		if p.dcap <= nu {
			return p.cap
		}
		z := numeric.BisectIncreasing(p.deriv, nu, 0, p.srv.Cap, 1e-13*p.srv.Cap)
		return numeric.Clamp(p.x*z, 0, p.cap)
	default:
		// Opaque function: golden-section on the per-type Lagrangian.
		p.nu = nu
		y, _ := numeric.MinimizeConvex(p.lag, 0, p.cap, 1e-13*math.Max(p.cap, 1))
		return y
	}
}

// total returns Σ_j y_j(ν) over the active types, non-decreasing in ν.
func (sv *Solver) total(nu float64) float64 {
	sum := 0.0
	for i := range sv.plans {
		sum += sv.plans[i].volumeAt(nu)
	}
	return sum
}

const (
	// dualBits fixes the dyadic resolution h = hi/2^47 of the canonical
	// dual: 47 halvings are what a midpoint bisection of [0, hi] performs
	// before its width drops under the legacy tolerance 1e-14·max(hi, 1).
	dualBits  = 47
	dualCells = int64(1) << dualBits
)

// maxDualHi caps the geometric bracket growth at 2^200, matching the
// legacy doubling loop's iteration cap.
var maxDualHi = math.Ldexp(1, 200)

// solveDual finds the canonical dual multiplier ν* at which the absorbed
// volume meets lambda. The search is warm-started from sv.warm when
// available and always lands on the same answer as a cold solve: the
// midpoint of the dyadic cell where Σ y_j(ν) crosses lambda.
func (sv *Solver) solveDual(lambda float64) float64 {
	warm := sv.warm
	if sv.opaque {
		// Golden-section-evaluated totals jitter non-monotonically at the
		// ~1e-13 scale — wider than a dyadic cell — so where a search lands
		// would depend on where the hint made it start. Hints are ignored
		// and the solve runs the hint-free reference bisection: slower,
		// but deterministic for any call history.
		warm = Warm{}
	}
	// ν* = 0 when the types absorb lambda at zero marginal cost. Cold and
	// zero-dual hints test that first; after a positive hint a monotone
	// total needs total(0) only if the bracket settles on hi = 1, since
	// any evaluation below lambda already rules ν* = 0 out.
	v0, haveV0 := 0.0, false
	if warm.Nu <= 0 {
		v0, haveV0 = sv.total(0), true
		if v0 >= lambda {
			sv.warm = Warm{Hi: math.Max(warm.Hi, 1), Nu: 0}
			return 0
		}
	}

	// Settle hi on the smallest power of two in [1, 2^200] whose absorbed
	// volume reaches lambda, starting from the warm bracket when present.
	// Every evaluation on the way brackets the crossing: total(a) = va <
	// lambda <= total(b) = vb, with a = 0 until one lands below lambda.
	hi := 1.0
	if frac, _ := math.Frexp(warm.Hi); frac == 0.5 && warm.Hi >= 1 && warm.Hi <= maxDualHi {
		hi = warm.Hi // only a power of two keeps the search on the canonical cells
	}
	v := sv.total(hi)
	a, va, b, vb := 0.0, v0, hi, v
	if v < lambda {
		for hi < maxDualHi && v < lambda {
			a, va = hi, v
			hi *= 2
			v = sv.total(hi)
		}
		b, vb = hi, v
	} else {
		for {
			// Any point of [hi/2, hi) below lambda proves hi minimal; at
			// hi = 1 any point of (0, 1) does, and rules out ν* = 0 too.
			// The hint's cell edge is tried first when it lies there: it
			// usually brackets the crossing tightly as well.
			lower := hi / 2
			if hi == 1 {
				lower = 0
			}
			h := math.Ldexp(hi, -dualBits)
			if e := math.Floor(warm.Nu/h) * h; e > lower && e < b {
				ve := sv.total(e)
				if ve < lambda {
					a, va = e, ve
					break
				}
				b, vb = e, ve
			}
			if hi == 1 {
				break
			}
			vv := sv.total(hi / 2)
			if vv < lambda {
				a, va = hi/2, vv
				break
			}
			hi /= 2
			v = vv
			b, vb = hi, v
		}
	}
	if a == 0 && !haveV0 {
		// hi = 1 and nothing below it has been evaluated.
		if v0 = sv.total(0); v0 >= lambda {
			sv.warm = Warm{Hi: 1, Nu: 0}
			return 0
		}
		va = v0
	}
	if v <= lambda {
		// Exact hit at the bracket, or demand beyond the growth cap.
		sv.warm = Warm{Hi: hi, Nu: hi}
		return hi
	}
	if sv.opaque {
		nu := sv.dualBisect(hi, lambda)
		sv.warm = Warm{Hi: hi, Nu: nu}
		return nu
	}
	h := math.Ldexp(hi, -dualBits)
	c := cellSearch{sv: sv, h: h, lambda: lambda,
		lo: int64(a / h), up: int64(b / h), vlo: va, vup: vb}
	nu := c.run(warm.Nu)
	sv.warm = Warm{Hi: hi, Nu: nu}
	return nu
}

// cellSearch finds the canonical cell of a monotone total directly on the
// integer cell index k ∈ [0, 2^47], evaluating total only at the dyadic
// edges k·h. It keeps total(lo·h) < lambda <= total(up·h) and stops at
// up−lo == 1, which is the canonical cell by definition.
type cellSearch struct {
	sv       *Solver
	h        float64
	lambda   float64
	lo, up   int64
	vlo, vup float64 // total(lo·h), total(up·h)
}

// run narrows the bracket to one cell and returns its midpoint, with no
// further rounding or snapping. hint is the previous solve's ν* (0 for
// none). Three kinds of probe find the cell fast:
//
//	(a) the hint's cell edges: along a lattice line a crossing at a cost
//	    jump stays in the same cell from solve to solve;
//	(b) the secant estimate's cell edges, kept while a step more than
//	    halves the bracket — otherwise the next step bisects on k;
//	(c) once the secant first stalls, the cost functions' breakpoints
//	    (see probeBreakpoints), where crossings concentrate.
func (c *cellSearch) run(hint float64) float64 {
	if hint > 0 {
		if k := hint / c.h; k < float64(c.up) {
			c.probe(int64(k))
			c.probe(int64(k) + 1)
		}
	}
	bisect, breaks := false, false
	for c.up-c.lo > 1 {
		width := c.up - c.lo
		if bisect {
			c.probe(c.lo + width/2)
		} else {
			k := int64(float64(c.lo) + (c.lambda-c.vlo)/(c.vup-c.vlo)*float64(width))
			if k >= c.up {
				k = c.up - 1 // crossing estimated at up itself: test below
			}
			c.probe(k)
			c.probe(k + 1)
		}
		stalled := !bisect && 2*(c.up-c.lo) > width
		if stalled && !breaks {
			breaks = true
			c.probeBreakpoints()
			stalled = 2*(c.up-c.lo) > width
		}
		bisect = stalled
	}
	lo := float64(c.lo) * c.h
	return lo + (float64(c.lo+1)*c.h-lo)/2
}

// probe evaluates total at the edge k·h when it lies strictly inside the
// bracket and moves the bracket's matching end there.
func (c *cellSearch) probe(k int64) {
	if k <= c.lo || k >= c.up {
		return
	}
	if v := c.sv.total(float64(k) * c.h); v < c.lambda {
		c.lo, c.vlo = k, v
	} else {
		c.up, c.vup = k, v
	}
}

// probeBreakpoints probes where an invertible type's absorbed volume
// bends: at d0 = f'(0) it starts absorbing and at dc = f'(Cap) it
// saturates. Probing the edge at each leaves the bracket on one smooth
// piece, where the secant is exact or nearly so. A constant marginal cost
// (Constant, Affine, Power with Exp 1, Scaled wraps of these) has
// d0 == dc: the volume jumps from 0 to capacity at the first edge
// k·h >= d0, so a crossing inside the jump lies in cell ceil(d0/h)−1 and
// both of its edges are probed.
func (c *cellSearch) probeBreakpoints() {
	for i := range c.sv.plans {
		p := &c.sv.plans[i]
		if p.kind != planInvertible {
			continue
		}
		d0, dc := p.inv.Deriv(0), p.inv.Deriv(p.srv.Cap)
		if k := math.Ceil(d0 / c.h); k > float64(c.lo) && k <= float64(c.up) {
			if d0 == dc {
				c.probe(int64(k) - 1)
			}
			c.probe(int64(k))
		}
		if k := math.Ceil(dc / c.h); dc != d0 && k > float64(c.lo) && k < float64(c.up) {
			c.probe(int64(k))
		}
	}
}

// dualBisect is the legacy midpoint bisection of [0, hi]: 47 halvings,
// then the final bracket's midpoint. It defines the canonical answer that
// cellSearch reaches faster, and it is the hint-free search of the opaque
// path, whose noisy totals a cellSearch could not bracket reliably.
func (sv *Solver) dualBisect(hi, lambda float64) float64 {
	a, b := 0.0, hi
	for i := 0; i < dualBits; i++ {
		mid := a + (b-a)/2
		if sv.total(mid) < lambda {
			a = mid
		} else {
			b = mid
		}
	}
	return a + (b-a)/2
}

// fillVolumes assigns exact volumes at the (approximately) optimal dual
// multiplier. Because Σ y_j(ν) can jump at ν* (ties between linear
// segments), it interpolates between the volumes just below and just above
// ν*; any point on that segment has identical marginal cost, so the
// interpolation preserves optimality while making Σ y_j = λ exact.
func (sv *Solver) fillVolumes(servers []Server, lambda, nuStar float64, y []float64) {
	active := sv.active
	delta := 1e-9 * (1 + math.Abs(nuStar))
	if cap(sv.lo) < len(active) {
		sv.lo = make([]float64, len(active))
		sv.hi = make([]float64, len(active))
	}
	lo, hi := sv.lo[:len(active)], sv.hi[:len(active)]
	var sumLo, sumHi float64
	for i := range active {
		lo[i] = sv.plans[i].volumeAt(nuStar - delta)
		hi[i] = sv.plans[i].volumeAt(nuStar + delta)
		sumLo += lo[i]
		sumHi += hi[i]
	}
	theta := 0.0
	if sumHi > sumLo {
		theta = numeric.Clamp((lambda-sumLo)/(sumHi-sumLo), 0, 1)
	}
	sum := 0.0
	for i, j := range active {
		y[j] = lo[i] + theta*(hi[i]-lo[i])
		sum += y[j]
	}
	// Remove the residual numerically, respecting capacities. The residual
	// is O(search tolerance), so the cost impact is negligible, but an
	// exact sum keeps downstream feasibility checks crisp.
	residual := lambda - sum
	for _, j := range active {
		if residual == 0 {
			break
		}
		cap := float64(servers[j].Active) * servers[j].Cap
		adj := numeric.Clamp(y[j]+residual, 0, cap) - y[j]
		y[j] += adj
		residual -= adj
	}
}
