package dispatch

import (
	"testing"

	"repro/internal/costfn"
)

// countingInv wraps an Invertible cost function and counts InvDeriv calls,
// which is how a test sees the number of total(ν) water-filling
// evaluations: each evaluation inverts every active type's derivative once.
type countingInv struct {
	costfn.Invertible
	n *int
}

func (c countingInv) InvDeriv(nu float64) float64 {
	*c.n++
	return c.Invertible.InvDeriv(nu)
}

// evalCounter wraps servers' cost functions in counting wrappers sharing
// one counter and converts the InvDeriv tally of a call into dual
// evaluations.
type evalCounter struct {
	n       int
	servers []Server
	solves  int // calls that ran a dual search
	evals   int // total(ν) evaluations across those calls
}

func newEvalCounter(servers []Server) *evalCounter {
	c := &evalCounter{servers: append([]Server(nil), servers...)}
	for j := range c.servers {
		c.servers[j].F = countingInv{Invertible: servers[j].F.(costfn.Invertible), n: &c.n}
	}
	return c
}

// fns returns the counting cost functions, in server order.
func (c *evalCounter) fns() []costfn.Func {
	out := make([]costfn.Func, len(c.servers))
	for j, s := range c.servers {
		out[j] = s.F
	}
	return out
}

// cost runs sv.Cost on servers (whose functions must come from c.fns) and
// tallies the dual evaluations it took. A dual solve inverts each of its
// active types once per evaluation plus twice more in fillVolumes; calls
// that never reach the dual search (one active type, λ = 0, infeasible)
// invert nothing.
func (c *evalCounter) cost(sv *Solver, servers []Server, lambda float64) float64 {
	before := c.n
	g := sv.Cost(servers, lambda)
	if calls := c.n - before; calls > 0 {
		active := 0
		for _, s := range servers {
			if s.Active > 0 && s.Cap > 0 {
				active++
			}
		}
		c.solves++
		c.evals += calls/active - 2
	}
	return g
}

func (c *evalCounter) mean() float64 {
	if c.solves == 0 {
		return 0
	}
	return float64(c.evals) / float64(c.solves)
}

// TestDualEvaluationsPerSolve guards the speed of the dual search: walking
// the heteroX4 lattice in grid order with one warm-started Solver must
// average at most 8 water-filling evaluations per dual solve.
func TestDualEvaluationsPerSolve(t *testing.T) {
	c := newEvalCounter(heteroX4)
	var sv Solver
	walkHeteroX4(c.fns(), func(servers []Server, lambda float64) {
		c.cost(&sv, servers, lambda)
	})
	mean := c.mean()
	t.Logf("%d dual solves, %.2f evaluations per solve", c.solves, mean)
	if c.solves == 0 || mean > 8 {
		t.Fatalf("mean evaluations per dual solve = %.2f over %d solves, want <= 8", mean, c.solves)
	}
}

// reportEvals runs one counted solve of servers at lambda after the timed
// loop and reports its dual evaluations as evals/op. warm repeats the
// solve on one Solver first, matching a benchmark that reuses its Solver.
func reportEvals(b *testing.B, servers []Server, lambda float64, warm bool) {
	b.StopTimer()
	c := newEvalCounter(servers)
	var sv Solver
	if warm {
		sv.Cost(c.servers, lambda)
	}
	c.cost(&sv, c.servers, lambda)
	b.ReportMetric(c.mean(), "evals/op")
}
