package dispatch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
)

func TestSolverMatchesAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sv Solver
	for i := 0; i < 300; i++ {
		d := 1 + rng.Intn(4)
		servers := make([]Server, d)
		totalCap := 0.0
		for j := range servers {
			servers[j] = Server{
				Active: rng.Intn(5),
				Cap:    0.5 + rng.Float64()*3,
				F:      costfn.Power{Idle: rng.Float64(), Coef: rng.Float64() * 2, Exp: 1 + rng.Float64()*2},
			}
			totalCap += float64(servers[j].Active) * servers[j].Cap
		}
		lambda := rng.Float64() * totalCap * 1.1 // sometimes infeasible
		want := Assign(servers, lambda).Cost
		got := sv.Cost(servers, lambda)
		if math.IsInf(want, 1) != math.IsInf(got, 1) {
			t.Fatalf("case %d: feasibility mismatch: Assign %v, Solver %v", i, want, got)
		}
		if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("case %d: Solver %g != Assign %g", i, got, want)
		}
	}
}

func TestSolverCostDoesNotAllocate(t *testing.T) {
	servers := []Server{
		{Active: 3, Cap: 1, F: costfn.Power{Idle: 1, Coef: 1, Exp: 2}},
		{Active: 2, Cap: 2, F: costfn.Affine{Idle: 1, Rate: 0.3}},
	}
	var sv Solver
	sv.Cost(servers, 3) // warm up scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		sv.Cost(servers, 3)
	})
	if allocs != 0 {
		t.Errorf("Solver.Cost allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkSolverCost(b *testing.B) {
	servers := []Server{
		{Active: 8, Cap: 1, F: costfn.Power{Idle: 1, Coef: 1, Exp: 2}},
		{Active: 4, Cap: 4, F: costfn.Affine{Idle: 2, Rate: 0.5}},
	}
	var sv Solver
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sv.Cost(servers, 7.3)
	}
	reportEvals(b, servers, 7.3, true)
}
