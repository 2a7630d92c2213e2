package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced run's in-process replay. It feeds the slots the daemon was
// sent to each layer's public entry point — serve.Manager, stream.Session,
// solver.PrefixTracker, each in a fresh process, and the wire codec —
// after the same one-period warm-up. A layer's self time is its per-slot
// time minus that of the layer below on the same slots. The storage,
// recovery and solver layers are then replayed on the same sessions'
// inputs.

// replaySlots caps the timed replay per session, keeping the replay to a
// fraction of the run.
const replaySlots = 200

// replayRounds is how many times each layer is replayed.
const replayRounds = 3

func (s *servingRun) replay() error {
	n := s.replayN()
	// The layers take turns, replayRounds times each, and each metric is
	// the median of its rounds, so the host's drift falls on all layers
	// alike and self times stay meaningful.
	names := []string{"manager", "stream", "tracker"}
	rounds := make([]map[string][]float64, len(names))
	for rep := 0; rep < replayRounds; rep++ {
		for l, name := range names {
			out, err := s.replayChild(name, "")
			if err != nil {
				return err
			}
			if rounds[l] == nil {
				rounds[l] = map[string][]float64{}
			}
			for k, v := range out {
				rounds[l][k] = append(rounds[l][k], v)
			}
		}
	}
	layers := make([]map[string]float64, len(names))
	for l := range rounds {
		layers[l] = map[string]float64{}
		for k, vs := range rounds[l] {
			layers[l][k] = median(vs)
		}
	}
	mgr, str, tr := layers[0], layers[1], layers[2]
	s.put("serve.allocs_per_push", mgr["allocs"])
	s.put("runtime.alloc_bytes_per_slot", mgr["bytes"])
	s.put("runtime.gc_cycles_per_kslot", mgr["gcs"]*1000)
	s.put("serve.manager_push_us", mgr["us"])
	s.put("serve.self_us", mgr["us"]-str["us"])
	s.put("stream.push_us", str["us"])
	s.put("stream.allocs_per_push", str["allocs"])
	s.put("stream.self_us", str["us"]-tr["us"])
	s.put("solver.tracker_push_us", tr["us"])

	ns, err := timeG(s.types, s.ss[0].lambda[:period])
	if err != nil {
		return err
	}
	s.put("dispatch.g_ns", ns)
	// The solver goes first: the crash state below feeds every
	// session's replayed slots through this process's layer memo.
	for _, step := range []func(n int) error{
		s.replaySolver, s.replayWire, s.replayWAL, s.replayStore, s.replayRecovery, s.replayCurves,
	} {
		if err := step(n); err != nil {
			return err
		}
	}
	return nil
}

// replayN is how many slots per session each layer replay times.
func (s *servingRun) replayN() int { return min(replaySlots, len(s.ss[0].lambda)-period-1) }

// replayChild runs one replay step in a fresh process of this program,
// which regenerates the run's inputs from the seed: the process-global
// layer memo is then cold and the same for every step, as it is for the
// daemon, and no step is served from layers another step computed. It
// returns the metrics the child measured.
func (s *servingRun) replayChild(step, crash string) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := child(exec.Command(self, "-replay", step, "-crash", crash, "-workload", s.w.name, "-build", s.build,
		"-seed", strconv.FormatInt(s.seed, 10), "-seconds", strconv.Itoa(s.seconds)))
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	s.attempted++
	if err != nil {
		s.failed++
		return nil, fmt.Errorf("replay %s: %w", step, err)
	}
	var out childResult
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("replay %s: %w", step, err)
	}
	if out.Failed > 0 {
		s.problem("replay %s: %d checks failed", step, out.Failed)
	}
	return out.Metrics, nil
}

// childResult is what a replay child prints.
type childResult struct {
	Metrics map[string]float64
	Failed  int64
}

// replayWorker is the child side of replayChild: it regenerates the
// inputs of workload's run, runs one step and prints its metrics.
func replayWorker(r *run, workload, step, crash string) error {
	w, ok := servingByName(workload)
	if !ok {
		return fmt.Errorf("no serving workload %q", workload)
	}
	s := &servingRun{run: r, w: w, types: heteroFleet()}
	if err := s.prepare(); err != nil {
		return err
	}
	if hits, misses := solver.MemoStats(); hits+misses != 0 {
		return fmt.Errorf("self-check: replay memo is not cold (%d lookups)", hits+misses)
	}
	var layer func(i, t int) error
	var err error
	switch step {
	case "manager":
		m := serve.NewManager(serve.Options{MaxSessions: len(s.ss)})
		defer m.Close()
		for i := range s.ss {
			if _, err := m.Open(serve.OpenRequest{ID: s.ss[i].id, Alg: s.ss[i].alg, Fleet: s.fleet}); err != nil {
				return err
			}
		}
		layer = s.managerLayer(m)
	case "stream":
		layer, err = s.streamLayer()
	case "tracker":
		layer, err = s.trackerLayer()
	case "recover":
		err = s.recoverFrom(crash)
	default:
		err = fmt.Errorf("unknown replay step %q", step)
	}
	if err != nil {
		return err
	}
	if layer != nil {
		if err := s.replayLayer(s.replayN(), layer); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(childResult{r.metrics, r.failed})
}

// replayLayer feeds every session's slots to one layer's push(i, t),
// sessions round-robin: one warm-up period, then n measured slots. It
// records the layer's cost per measured slot — wall µs, allocations,
// allocated bytes and GC cycles — as this process's metrics.
func (s *servingRun) replayLayer(n int, push func(i, t int) error) error {
	feed := func(from, to int) error {
		for t := from; t < to; t++ {
			for i := range s.ss {
				if err := push(i, t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := feed(0, period); err != nil {
		return err
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	err := feed(period, period+n)
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	slots := float64(n * len(s.ss))
	s.put("us", float64(d.Nanoseconds())/1e3/slots)
	s.put("allocs", float64(b.Mallocs-a.Mallocs)/slots)
	s.put("bytes", float64(b.TotalAlloc-a.TotalAlloc)/slots)
	s.put("gcs", float64(b.NumGC-a.NumGC)/slots)
	return err
}

// managerLayer pushes through serve.Manager, without HTTP.
func (s *servingRun) managerLayer(m *serve.Manager) func(i, t int) error {
	ctx := context.Background()
	return func(i, t int) error {
		_, err := m.PushCtx(ctx, s.ss[i].id, serve.PushRequest{Lambda: s.ss[i].lambda[t]})
		return err
	}
}

// streamLayer pushes through stream.Session.
func (s *servingRun) streamLayer() (func(i, t int) error, error) {
	sess := make([]*stream.Session, len(s.ss))
	var adv stream.Advisory
	for i := range s.ss {
		var err error
		if sess[i], err = engine.OpenSession(s.ss[i].alg, s.types, stream.Options{}); err != nil {
			return nil, err
		}
	}
	return func(i, t int) error {
		_, err := sess[i].Push(model.SlotInput{T: t + 1, Lambda: s.ss[i].lambda[t]}, &adv)
		return err
	}, nil
}

// trackerLayer pushes through the exact prefix-optimum tracker that
// Algorithms A and B step with.
func (s *servingRun) trackerLayer() (func(i, t int) error, error) {
	trs := make([]*solver.PrefixTracker, len(s.ss))
	for i := range trs {
		var err error
		if trs[i], err = solver.NewStreamTracker(s.types, solver.Options{}); err != nil {
			return nil, err
		}
	}
	return func(i, t int) error {
		_, _, err := trs[i].Push(model.SlotInput{T: t + 1, Lambda: s.ss[i].lambda[t]})
		return err
	}, nil
}

// repeatNs times fn(i) over i = 0, 1, ... for at least 100ms and
// returns the mean ns per call.
func repeatNs(fn func(i int) error) (float64, error) {
	start := time.Now()
	n := 0
	for ; time.Since(start) < 100*time.Millisecond; n += 64 {
		for i := n; i < n+64; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// replayWire decodes the push bodies the daemon received and encodes the
// final advisories it answered with.
func (s *servingRun) replayWire(n int) error {
	var bodies [][]byte
	for i := range s.ss {
		bodies = append(bodies, s.ss[i].bodies[period:period+n]...)
	}
	var req wire.PushRequest
	dec, err := repeatNs(func(i int) error { return wire.DecodePushRequest(bodies[i%len(bodies)], &req) })
	if err != nil {
		return err
	}
	var buf []byte
	enc, err := repeatNs(func(i int) error {
		res := wire.PushResult{Decided: true, Advisory: &s.advisories[i%len(s.advisories)]}
		var err error
		buf, err = wire.AppendPushResult(buf[:0], &res)
		return err
	})
	s.put("wire.decode_push_ns", dec)
	s.put("wire.encode_result_ns", enc)
	return err
}

// timeG times the dispatch layer: model.Evaluator.G over every lattice
// cell of types at every slot of lambda.
func timeG(types []model.ServerType, lambda []float64) (float64, error) {
	ev := model.NewEvaluator(&model.Instance{Types: types, Lambda: lambda})
	var cells []model.Config
	var walk func(x model.Config, j int)
	walk = func(x model.Config, j int) {
		if j == len(x) {
			cells = append(cells, x.Clone())
			return
		}
		for x[j] = 0; x[j] <= types[j].Count; x[j]++ {
			walk(x, j+1)
		}
	}
	walk(make(model.Config, len(types)), 0)
	return repeatNs(func(i int) error {
		ev.G(1+(i/len(cells))%len(lambda), cells[i%len(cells)])
		return nil
	})
}

// replayWAL times wal.Log.Append at sync=always in a scratch log.
func (s *servingRun) replayWAL(int) error {
	dir := filepath.Join(s.base, "walbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(filepath.Join(dir, "bench.wal"), []byte(`{"id":"bench"}`), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer l.Close()
	trace := s.ss[0].lambda
	ns, err := repeatNs(func(i int) error {
		_, err := l.Append(wal.Record{T: i + 1, Lambda: trace[i%len(trace)]})
		return err
	})
	s.put("wal.append_us", ns/1e3)
	return err
}

// replayStore saves and loads every session's full-trace snapshot
// through serve.DirStore.
func (s *servingRun) replayStore(int) error {
	dir := filepath.Join(s.base, "storebench")
	defer os.RemoveAll(dir)
	st, err := serve.NewDirStore(dir)
	if err != nil {
		return err
	}
	var save, load, kb []float64
	for i := range s.ss {
		cp := &stream.Checkpoint{Alg: s.ss[i].alg, Slots: make([]stream.SlotRecord, len(s.ss[i].lambda))}
		for t, v := range s.ss[i].lambda {
			cp.Slots[t].Lambda = v
		}
		snap := &serve.Snapshot{ID: s.ss[i].id, Fleet: s.fleet, Checkpoint: cp}
		start := time.Now()
		if err := st.Save(snap); err != nil {
			return err
		}
		save = append(save, float64(time.Since(start).Microseconds())/1e3)
		fi, err := os.Stat(filepath.Join(dir, s.ss[i].id+".json"))
		if err != nil {
			return err
		}
		kb = append(kb, float64(fi.Size())/1024)
		start = time.Now()
		got, ok, err := st.Load(s.ss[i].id)
		if err != nil || !ok || len(got.Checkpoint.Slots) != len(cp.Slots) {
			return fmt.Errorf("store replay: load %s: ok=%v err=%v", s.ss[i].id, ok, err)
		}
		load = append(load, float64(time.Since(start).Microseconds())/1e3)
	}
	s.put("store.save_ms", median(save))
	s.put("store.load_ms", median(load))
	s.put("store.snapshot_kb", median(kb))
	return nil
}

// replayRecovery times Manager.RecoverWAL, in a fresh process, over a
// crash state: on the durable workload the one its SIGKILL left,
// elsewhere one built by crashState from the same sessions.
func (s *servingRun) replayRecovery(n int) error {
	crash := filepath.Join(s.base, "crash")
	if !s.w.durable {
		if err := s.crashState(crash, period+n); err != nil {
			return err
		}
	}
	out, err := s.replayChild("recover", crash)
	if err != nil {
		return err
	}
	s.put("serve.recover_wal_s", out["serve.recover_wal_s"])
	if !s.w.durable {
		s.put("wal.recovered_sessions", out["wal.recovered_sessions"])
	}
	return nil
}

// recoverFrom times Manager.RecoverWAL over the crash state in dir.
func (s *servingRun) recoverFrom(crash string) error {
	st, err := serve.NewDirStore(filepath.Join(crash, "snapshots"))
	if err != nil {
		return err
	}
	m := serve.NewManager(serve.Options{MaxSessions: len(s.ss), Store: st, WALDir: filepath.Join(crash, "wal"), WALSync: wal.SyncAlways})
	defer m.Close()
	start := time.Now()
	rep, err := m.RecoverWAL()
	if err != nil {
		return err
	}
	s.put("serve.recover_wal_s", time.Since(start).Seconds())
	s.put("wal.recovered_sessions", float64(rep.Sessions))
	if rep.Sessions != len(s.ss) || len(rep.Failed) > 0 {
		s.problem("in-process recovery: %s, want %d sessions", rep, len(s.ss))
	}
	return nil
}

// crashState feeds every session's first T slots to an in-process
// manager with a WAL and a DirStore and copies their directories to dst
// while the manager is still live, as a crash would leave them. It
// records the logs' bytes per slot.
func (s *servingRun) crashState(dst string, T int) error {
	live := filepath.Join(s.base, "replaylive")
	if err := os.MkdirAll(filepath.Join(live, "wal"), 0o755); err != nil {
		return err
	}
	st, err := serve.NewDirStore(filepath.Join(live, "snapshots"))
	if err != nil {
		return err
	}
	m := serve.NewManager(serve.Options{MaxSessions: len(s.ss), Store: st, WALDir: filepath.Join(live, "wal"), WALSync: wal.SyncNever})
	defer m.Close()
	ctx := context.Background()
	for i := range s.ss {
		if _, err := m.Open(serve.OpenRequest{ID: s.ss[i].id, Alg: s.ss[i].alg, Fleet: s.fleet}); err != nil {
			return err
		}
		for _, v := range s.ss[i].lambda[:T] {
			if _, err := m.PushCtx(ctx, s.ss[i].id, serve.PushRequest{Lambda: v}); err != nil {
				return err
			}
		}
	}
	walBytes, err := dirBytes(filepath.Join(live, "wal"))
	if err != nil {
		return err
	}
	s.put("wal.bytes_per_slot", float64(walBytes)/float64(T*len(s.ss)))
	return copyTree(live, dst)
}

// replaySolver solves a session's first period+n slots exactly and
// (1+ε)-approximately, in this process's memo state after the
// correctness gate, and checks the pair like the offline workload does.
// Session 3 is the first one the gate's references did not feed.
func (s *servingRun) replaySolver(n int) error {
	ins := &model.Instance{Types: s.types, Lambda: s.ss[3].lambda[:period+n]}
	res, err := solvePair(ins)
	if err != nil {
		return err
	}
	s.checkPair(s.ss[3].id+" offline solve", res)
	s.putSolver(res.ExactS, res.ApproxS, res)
	return nil
}

// replayCurves records resume time and checkpoint size against session
// length: an Algorithm B session fed the workload's demand shape,
// checkpointed at T=480 and T=4800 and resumed with engine.ResumeSession.
func (s *servingRun) replayCurves(int) error {
	sess, err := engine.OpenSession("alg-b", s.types, stream.Options{})
	if err != nil {
		return err
	}
	trace := s.w.trace(mix(s.seed, "curve", 0), 4800)
	var adv stream.Advisory
	fed := 0
	for _, T := range []int{480, 4800} {
		for ; fed < T; fed++ {
			if _, err := sess.Push(model.SlotInput{T: fed + 1, Lambda: trace[fed]}, &adv); err != nil {
				return err
			}
		}
		cp := sess.Checkpoint()
		data, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		var ms []float64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			back, err := engine.ResumeSession(cp, s.types, stream.Options{})
			if err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(start).Microseconds())/1e3)
			if back.CumCost() != sess.CumCost() {
				s.problem("resume at T=%d: cum_cost %v, want %v", T, back.CumCost(), sess.CumCost())
			}
		}
		sort.Float64s(ms)
		s.put(fmt.Sprintf("stream.resume_ms.t%d", T), ms[1])
		s.put(fmt.Sprintf("stream.checkpoint_kb.t%d", T), float64(len(data))/1024)
	}
	return nil
}
