package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/model"
)

// Inputs are pure functions of the run seed: the same seed gives the same
// fleets, traces and session assignments. Only the generated values reach
// the daemon — inline fleet types and push bodies, never a scenario name.

// period is the diurnal cycle length in slots; one period is the warm-up
// every serving session is fed before timing starts.
const period = 24

// algs are the paper's three online algorithms; sessions take them
// round-robin.
var algs = []string{"alg-a", "alg-b", "alg-c"}

// heteroFleet is the heterogeneous scenario's fleet: d=3 server
// generations at 10/6/3 servers, a 308-cell lattice.
func heteroFleet() []model.ServerType {
	sc, ok := engine.Lookup("heterogeneous")
	if !ok {
		panic("heterogeneous scenario missing from the registry")
	}
	return sc.Instance(0).Types
}

// latticeCells is the size of the exact configuration lattice of types.
func latticeCells(types []model.ServerType) int {
	n := 1
	for _, st := range types {
		n *= st.Count + 1
	}
	return n
}

// mix derives a sub-seed from the run seed and a tag (splitmix64).
func mix(seed int64, tag string, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	for _, c := range []byte(tag) {
		z = (z ^ uint64(c)) * 0x100000001B3
	}
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// sessionSeeds gives each of n sessions its own seed and checks that they
// are distinct: two sessions sharing a seed share every memo layer, which
// would put the continuous workload in the wrong regime.
func sessionSeeds(seed int64, tag string, n int) ([]int64, error) {
	seeds := make([]int64, n)
	seen := make(map[int64]bool, n)
	for i := range seeds {
		seeds[i] = mix(seed, tag, i)
		if seen[seeds[i]] {
			return nil, fmt.Errorf("self-check: sessions share seed %d", seeds[i])
		}
		seen[seeds[i]] = true
	}
	return seeds, nil
}

// diurnal is the shared day shape: base at night, peak at midday.
func diurnal(t int, phase float64, base, peak float64) float64 {
	return base + (peak-base)*(1-math.Cos(2*math.Pi*(float64(t)+phase)/period))/2
}

// quantizedTrace is an integer diurnal cycle with a per-session phase and
// peak. Integer demand repeats every period, so after one warm-up period
// the solver's layer memo answers nearly every slot.
func quantizedTrace(sessionSeed int64, T int) []float64 {
	rng := rand.New(rand.NewSource(sessionSeed))
	phase := float64(rng.Intn(period))
	peak := float64(22 + rng.Intn(7))
	out := make([]float64, T)
	for t := range out {
		out[t] = math.Round(diurnal(t, phase, 3, peak))
	}
	return out
}

// continuousTrace is a noisy diurnal cycle with occasional bursts, drawn
// from the session's own stream: no two slots of any two sessions share
// a demand value, so every slot misses the layer memo.
func continuousTrace(sessionSeed int64, T int) []float64 {
	rng := rand.New(rand.NewSource(sessionSeed))
	phase := rng.Float64() * period
	out := make([]float64, T)
	for t := range out {
		v := diurnal(t, phase, 3, 24) + rng.NormFloat64()*1.5
		if rng.Float64() < 0.05 {
			v += 2 + rng.Float64()*4
		}
		out[t] = math.Min(math.Max(v, 0.5), 30)
	}
	return out
}

// offlineInstance is the offline workload's instance k: the heterogeneous
// fleet with every count ×4 (40/24/12 servers, a 13,325-cell exact
// lattice) under continuous demand, with a maintenance window that takes
// half of gen2 offline mid-horizon (time-variable sizes, Section 4.3).
func offlineInstance(seed int64, k, T int) *model.Instance {
	types := heteroFleet()
	for j := range types {
		types[j].Count *= 4
	}
	rng := rand.New(rand.NewSource(mix(seed, "offline", k)))
	phase := rng.Float64() * period
	counts := make([][]int, T)
	lambda := make([]float64, T)
	for t := range lambda {
		row := []int{types[0].Count, types[1].Count, types[2].Count}
		if t >= T/3 && t < T/2 {
			row[1] /= 2
		}
		counts[t] = row
		capacity := 0.0
		for j, n := range row {
			capacity += float64(n) * types[j].MaxLoad
		}
		v := diurnal(t, phase, 12, 100) + rng.NormFloat64()*5
		lambda[t] = math.Min(math.Max(v, 1), 0.85*capacity)
	}
	return &model.Instance{Types: types, Lambda: lambda, Counts: counts}
}

// offlineProbeTrace is the offline workload's demand shape at the serving
// fleet's scale: an offline instance's demand divided by the ×4 fleet's
// factor, drawn from the session's own seed.
func offlineProbeTrace(sessionSeed int64, T int) []float64 {
	out := offlineInstance(sessionSeed, 0, T).Lambda
	for t := range out {
		out[t] /= 4
	}
	return out
}
