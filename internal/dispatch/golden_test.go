package dispatch

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/costfn"
)

// heteroX4 is the heterogeneous scenario's fleet with every count ×4: 40
// constant-cost gen1 servers, 24 affine gen2 servers (Rate 0.6) and 12
// quadratic gen3 servers, a 41×25×13 = 13,325-cell lattice. The constant
// and affine types put many dual crossings exactly on cost jumps.
var heteroX4 = []Server{
	{Active: 40, Cap: 1, F: costfn.Constant{C: 1.2}},
	{Active: 24, Cap: 2, F: costfn.Affine{Idle: 1.5, Rate: 0.6}},
	{Active: 12, Cap: 4, F: costfn.Power{Idle: 2.5, Coef: 0.3, Exp: 2}},
}

// heteroX4Slots is the horizon of the golden lattice walk.
const heteroX4Slots = 48

// heteroX4Counts returns the server counts available in slot t: a
// maintenance window over the middle sixth of the horizon takes half of
// gen2 offline.
func heteroX4Counts(t int) [3]int {
	c := [3]int{heteroX4[0].Active, heteroX4[1].Active, heteroX4[2].Active}
	if t >= heteroX4Slots/3 && t < heteroX4Slots/2 {
		c[1] /= 2
	}
	return c
}

// heteroX4Demand is a noisy triangular day between 12 and 100, clamped to
// [1, 0.85·capacity] of each slot. It uses only basic arithmetic on a
// seeded source, so it is reproducible bit for bit.
func heteroX4Demand() []float64 {
	rng := rand.New(rand.NewSource(2026))
	phase := rng.Float64() * 24
	out := make([]float64, heteroX4Slots)
	for t := range out {
		p := math.Mod(float64(t)+phase, 24) / 12 // in [0, 2)
		tri := p
		if p > 1 {
			tri = 2 - p
		}
		v := 12 + 88*tri + (rng.Float64()-0.5)*10
		c := heteroX4Counts(t)
		capacity := 0.0
		for j, n := range c {
			capacity += float64(n) * heteroX4[j].Cap
		}
		out[t] = math.Min(math.Max(v, 1), 0.85*capacity)
	}
	return out
}

// walkHeteroX4 visits every cell of every slot of the heteroX4 lattice in
// grid order (last type innermost, as the DP's layer sweep walks it) and
// calls visit with the slot's servers and demand. fns replaces the cost
// functions when non-nil.
func walkHeteroX4(fns []costfn.Func, visit func(servers []Server, lambda float64)) {
	servers := append([]Server(nil), heteroX4...)
	for j := range servers {
		if fns != nil {
			servers[j].F = fns[j]
		}
	}
	for t, lambda := range heteroX4Demand() {
		c := heteroX4Counts(t)
		for x0 := 0; x0 <= c[0]; x0++ {
			for x1 := 0; x1 <= c[1]; x1++ {
				for x2 := 0; x2 <= c[2]; x2++ {
					servers[0].Active, servers[1].Active, servers[2].Active = x0, x1, x2
					visit(servers, lambda)
				}
			}
		}
	}
}

// goldenHeteroX4 is the FNV-64a checksum of every g_t(x) of the heteroX4
// walk, recorded with the float-bracket search that preceded the cell
// search. Any change to the dual search must leave every bit of every
// cell unchanged.
const goldenHeteroX4 = uint64(0x1ba9c436c08d6b8b)

// TestGoldenGChecksum pins g_t(x) bit for bit over 48 slots of the full
// heteroX4 lattice, walked with one warm-started Solver. The constant is
// an amd64 figure: other architectures may fuse multiply-adds, which moves
// low-order bits legitimately.
func TestGoldenGChecksum(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	h := fnv.New64a()
	var sv Solver
	var buf [8]byte
	cells := 0
	walkHeteroX4(nil, func(servers []Server, lambda float64) {
		bits := math.Float64bits(sv.Cost(servers, lambda))
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
		cells++
	})
	if got := h.Sum64(); got != goldenHeteroX4 {
		t.Fatalf("g checksum over %d cells = %#x, want %#x", cells, got, goldenHeteroX4)
	}
}
