package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/model"
	"repro/internal/solver"
)

const (
	offlineName = "offline-suite"
	// offlineT is the horizon of each offline instance; one exact plus
	// one approximate solve of it takes about a second on the reference
	// box, so a run solves about --seconds instances.
	offlineT   = 48
	offlineEps = 0.5
)

// workerResult is what one offline worker process reports.
type workerResult struct {
	ExactS, ApproxS         float64
	Exact, Approx           float64 // costs the solver reported
	ExactEval, ApproxEval   float64 // costs of the schedules, re-evaluated
	ExactInfeas, ApproxInfs string  // feasibility errors, empty when feasible
	CellsExact, CellsApprox int
	PeakRSSMiB              float64
	GCCycles                uint32
	AllocBytes              uint64
}

// offlineWorker solves instance k exactly and (1+ε)-approximately in
// this process, whose layer memo is therefore cold, and reports on
// stdout: "ready" once the instance is generated and validated, then the
// result as JSON.
func offlineWorker(seed int64, k int) error {
	ins := offlineInstance(seed, k, offlineT)
	if err := ins.Validate(); err != nil {
		return err
	}
	if hits, misses := solver.MemoStats(); hits+misses != 0 {
		return fmt.Errorf("self-check: worker memo is not cold (%d lookups)", hits+misses)
	}
	fmt.Println("ready")
	res, err := solvePair(ins)
	if err != nil {
		return err
	}
	if res.PeakRSSMiB, err = peakRSSMiB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// solvePair solves ins exactly and (1+ε)-approximately, timing each
// solve, and re-evaluates and feasibility-checks both schedules.
func solvePair(ins *model.Instance) (workerResult, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ex, err := solver.Solve(ins, solver.Options{})
	if err != nil {
		return workerResult{}, err
	}
	mid := time.Now()
	ap, err := solver.SolveApprox(ins, offlineEps)
	if err != nil {
		return workerResult{}, err
	}
	end := time.Now()
	runtime.ReadMemStats(&ms1)

	ev := model.NewEvaluator(ins)
	res := workerResult{
		ExactS: mid.Sub(start).Seconds(), ApproxS: end.Sub(mid).Seconds(),
		Exact: ex.Cost(), Approx: ap.Cost(),
		ExactEval: ev.Cost(ex.Schedule).Total(), ApproxEval: ev.Cost(ap.Schedule).Total(),
		CellsExact: ex.LatticeSize, CellsApprox: ap.LatticeSize,
		GCCycles: ms1.NumGC - ms0.NumGC, AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	}
	if err := ins.Feasible(ex.Schedule); err != nil {
		res.ExactInfeas = err.Error()
	}
	if err := ins.Feasible(ap.Schedule); err != nil {
		res.ApproxInfs = err.Error()
	}
	return res, nil
}

// checkPair is the offline correctness gate for one solved instance:
// feasible schedules, approx within [OPT, (1+ε)·OPT], and reported costs
// equal to the schedules' evaluated costs.
func (r *run) checkPair(label string, res workerResult) {
	tol := 1e-9 * res.Exact
	switch {
	case res.ExactInfeas != "" || res.ApproxInfs != "":
		r.problem("%s: infeasible schedule: %s%s", label, res.ExactInfeas, res.ApproxInfs)
	case res.Approx > (1+offlineEps)*res.Exact+tol || res.Approx < res.Exact-tol:
		r.problem("%s: approx %v outside [OPT, (1+ε)·OPT] with OPT %v", label, res.Approx, res.Exact)
	case math.Abs(res.ExactEval-res.Exact) > tol || math.Abs(res.ApproxEval-res.Approx) > tol:
		r.problem("%s: reported costs %v/%v, evaluated schedules %v/%v",
			label, res.Exact, res.Approx, res.ExactEval, res.ApproxEval)
	}
}

// putSolver records the solver layer's per-layer metrics.
func (r *run) putSolver(exactS, approxS float64, res workerResult) {
	r.put("solver.exact_s", exactS)
	r.put("solver.approx_s", approxS)
	r.put("solver.lattice_cells.exact", float64(res.CellsExact))
	r.put("solver.lattice_cells.approx", float64(res.CellsApprox))
}

// runOffline runs one worker process per instance, one after another,
// until --seconds have passed (at least 3). setup_s is exec → "ready";
// an operation is one instance's exact plus approximate solve. The
// correctness gate checks each instance's approximation bound and both
// schedules' evaluated costs.
func runOffline(r *run) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second)
	var setup, solve, exact, approx, rss, gc, alloc []float64
	var last workerResult
	ratio, solving := 0.0, 0.0
	n := 0
	for ; n < 3 || time.Now().Before(deadline); n++ {
		k := n
		start := time.Now()
		cmd := child(exec.Command(self, "-offline-worker", strconv.Itoa(k), "-seed", strconv.FormatInt(r.seed, 10)))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		sc := bufio.NewScanner(out)
		var res workerResult
		ok := sc.Scan() && sc.Text() == "ready"
		ready := time.Since(start).Seconds()
		ok = ok && sc.Scan() && json.Unmarshal(sc.Bytes(), &res) == nil
		if err := cmd.Wait(); err != nil || !ok {
			return fmt.Errorf("offline worker %d failed: %v", k, err)
		}
		r.attempted += 2
		r.checkPair(fmt.Sprintf("instance %d", k), res)
		setup = append(setup, ready)
		solve = append(solve, res.ExactS+res.ApproxS)
		solving += res.ExactS + res.ApproxS
		exact = append(exact, res.ExactS)
		approx = append(approx, res.ApproxS)
		rss = append(rss, res.PeakRSSMiB)
		gc = append(gc, float64(res.GCCycles))
		alloc = append(alloc, float64(res.AllocBytes))
		ratio += res.Approx / res.Exact
		last = res
	}
	r.note("%s: %d instances solved, each in a fresh worker process; solve seconds %.4f", offlineName, n, solve)
	sort.Float64s(solve)
	r.put("setup_s", median(setup))
	r.put("op_p50_ms", quantile(solve, 0.5)*1e3)
	r.put("op_p90_ms", quantile(solve, 0.9)*1e3)
	r.put("ops_per_s", float64(n)/solving)
	r.put("cost_ratio", ratio/float64(n))
	r.put("peak_rss_mb", median(rss))
	r.putSolver(median(exact), median(approx), last)
	r.put("runtime.gc_cycles_per_kslot", median(gc)*1000/offlineT)
	r.put("runtime.alloc_bytes_per_slot", median(alloc)/offlineT)
	if r.trace {
		// The dispatch layer on this workload's lattice: the ×4 fleet.
		ins := offlineInstance(r.seed, 0, offlineT)
		ns, err := timeG(ins.Types, ins.Lambda)
		if err != nil {
			return err
		}
		r.put("dispatch.g_ns", ns)
	}
	return nil
}
