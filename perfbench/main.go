// Command perfbench is the repository's end-to-end benchmark. It measures
// the rightsized daemon over loopback and the offline solver in worker
// processes of their own, checks every output for correctness, and prints
// one JSON result line. Run it from the repository root through run.sh,
// which builds both programs from source first:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads and metric names are declared in BENCHMARK.json. scope.json
// (embedded) defines each end-to-end metric on each workload as the
// operation that workload exercises, because a metric read where its
// layer does no real work measures noise. With --trace 0 a run reports
// every end-to-end metric; with --trace 1 it repeats the workload with
// client spans on, replays the same inputs in-process at each layer's
// entry point, and reports every per-layer metric.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
)

//go:embed scope.json
var scopeJSON []byte

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// scope defines each end-to-end metric per workload and records, for
// each per-layer metric, the end-to-end metrics it should move and on
// which workloads.
type scope struct {
	EndToEnd map[string]map[string]string `json:"end_to_end"`
	Moves    map[string]struct {
		Moves []string `json:"moves"`
		On    []string `json:"on"`
	} `json:"per_layer_moves"`
}

// run is one benchmark invocation's state and tallies.
type run struct {
	seed      int64
	seconds   int
	trace     bool
	build     string
	attempted int64
	failed    int64
	metrics   map[string]float64
}

// put records a metric value.
func (r *run) put(name string, v float64) { r.metrics[name] = v }

// problem records a correctness failure. Like every failed operation it
// marks the run incorrect, which makes it exit non-zero.
func (r *run) problem(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// note is a diagnostic line on stderr.
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	build := flag.String("build", ".bench_build", "build directory holding bin/rightsized")
	worker := flag.Int("offline-worker", -1, "internal: solve offline instance k in this process")
	step := flag.String("replay", "", "internal: run one traced replay step in this process")
	crash := flag.String("crash", "", "internal: crash state directory of the recover replay step")
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), connections))

	if *step != "" {
		r := &run{seed: *seed, seconds: max(*seconds, 1), trace: true, build: *build, metrics: map[string]float64{}}
		if err := replayWorker(r, *workload, *step, *crash); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench replay:", err)
			os.Exit(1)
		}
		return
	}

	if *worker >= 0 {
		if err := offlineWorker(*seed, *worker); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchmark(*workload, *seed, *seconds, *trace == 1, *build); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, seconds int, trace bool, build string) error {
	units, want, err := loadSpec(workload, trace)
	if err != nil {
		return err
	}
	r := &run{seed: seed, seconds: max(seconds, 1), trace: trace, build: build, metrics: map[string]float64{}}
	if workload == offlineName {
		if trace {
			// The serving layers, fed this workload's demand: the
			// offline workers then overwrite the solver and runtime
			// metrics with their own.
			err = runServing(r, offlineProbe)
		}
		if err == nil {
			err = runOffline(r)
		}
	} else {
		w, _ := servingByName(workload)
		err = runServing(r, w)
	}
	if err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, name := range want {
		v, ok := r.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s did not measure %s (%v)", workload, name, v)
		}
		out.Metrics[name] = value{v, units[name]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}

// loadSpec reads BENCHMARK.json and the embedded scope, checks that the
// two agree, and returns every metric's unit plus the metrics this run
// reports: every end-to-end metric, or with trace every per-layer one.
func loadSpec(workload string, trace bool) (map[string]string, []string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sc scope
	if err := json.Unmarshal(scopeJSON, &sc); err != nil {
		return nil, nil, fmt.Errorf("scope.json: %w", err)
	}
	units := map[string]string{}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
		layer = append(layer, m.Name)
	}
	known := map[string]bool{}
	for _, w := range spec.Workloads {
		known[w.Name] = true
	}
	if !known[workload] {
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	if len(sc.EndToEnd) != len(e2e) {
		return nil, nil, fmt.Errorf("scope.json and BENCHMARK.json list different end-to-end metrics")
	}
	for _, m := range e2e {
		defs := sc.EndToEnd[m]
		if len(defs) != len(known) {
			return nil, nil, fmt.Errorf("scope.json: %s is not defined on every workload of BENCHMARK.json", m)
		}
		for w := range defs {
			if !known[w] {
				return nil, nil, fmt.Errorf("scope.json: %s is defined on unknown workload %s", m, w)
			}
		}
	}
	if len(sc.Moves) != len(layer) {
		return nil, nil, fmt.Errorf("scope.json and BENCHMARK.json list different per-layer metrics")
	}
	for _, m := range layer {
		mv, ok := sc.Moves[m]
		if !ok {
			return nil, nil, fmt.Errorf("scope.json: per-layer metric %s has no per_layer_moves entry", m)
		}
		for _, e := range mv.Moves {
			if sc.EndToEnd[e] == nil {
				return nil, nil, fmt.Errorf("scope.json: %s moves unknown metric %s", m, e)
			}
		}
		for _, w := range mv.On {
			if !known[w] {
				return nil, nil, fmt.Errorf("scope.json: %s moves on unknown workload %s", m, w)
			}
		}
	}
	if trace {
		return units, layer, nil
	}
	return units, e2e, nil
}

// quantile interpolates quantile q of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

// median of xs (unsorted; xs is not modified).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
