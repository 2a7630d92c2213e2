package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/stream"
	"repro/internal/wire"
)

// servingWorkload drives the real daemon over loopback.
type servingWorkload struct {
	name     string
	tag      string // session id prefix
	sessions int
	// rate is the acknowledged slots/s the timed phase sustains on the
	// reference box (2 CPUs); it sizes each session's trace so the timed
	// phase lasts about --seconds while every run of a seed feeds the
	// same slots. The slot count is fixed rather than the phase's length
	// because the sessions' state, and with it peak_rss_mb, grows with
	// every slot: a faster daemon must not be charged for holding more.
	rate float64
	// loadSlots, when set, fixes each session's slot count instead: the
	// durable workload's push phase only builds the crash state, whose
	// size sets the resume and recovery costs and so must not vary.
	loadSlots int
	trace     func(seed int64, T int) []float64
	durable   bool
	// hitBand bounds the timed phase's layer-memo hit ratio: a run
	// outside [lo, hi] has slipped into the wrong regime and fails.
	hitLo, hitHi float64
}

var servingWorkloads = []servingWorkload{
	{name: "quantized-diurnal", tag: "qd", sessions: 48, rate: 16000, trace: quantizedTrace, hitLo: 0.95, hitHi: 1},
	{name: "continuous-hetero", tag: "ch", sessions: 6, rate: 3000, trace: continuousTrace, hitLo: 0, hitHi: 0.5},
	{name: "durable-restart", tag: "dr", sessions: 24, loadSlots: 1000, trace: quantizedTrace, durable: true, hitLo: 0, hitHi: 1},
}

// servingByName finds a serving workload, the offline probe included.
func servingByName(name string) (servingWorkload, bool) {
	for _, w := range append(servingWorkloads, offlineProbe) {
		if w.name == name {
			return w, true
		}
	}
	return servingWorkload{}, false
}

// offlineProbe is the serving half of the offline workload's traced run:
// a short daemon run fed offline-shaped demand, so that the serving
// layers' per-layer metrics are measured on that workload's inputs too.
var offlineProbe = servingWorkload{name: offlineName, tag: "os", sessions: 6, loadSlots: 200, trace: offlineProbeTrace, hitLo: 0, hitHi: 1}

// connections is the number of keep-alive connections, one per CPU of
// the reference box; each owns a disjoint share of the sessions.
const connections = 2

// setupReps is how many times a trace-0 run sets the daemon up; setup_s
// is their median and the last one serves the timed phase.
const setupReps = 7

// session is one serving session's identity and inputs.
type session struct {
	id     string
	alg    string
	path   string    // push URL path
	lambda []float64 // every slot the run will send
	bodies [][]byte  // wire-encoded push bodies, one per slot
}

// servingRun is the state of one serving workload run.
type servingRun struct {
	*run
	w     servingWorkload
	types []model.ServerType
	fleet serve.FleetJSON
	ss    []session
	args  []string
	// base holds the run's files. On the durable workload live/ is the
	// daemon's WAL and snapshot directories and crash/ a copy of them as
	// a SIGKILL left them; the traced replay keeps its scratch logs and
	// snapshots here too.
	base  string
	d     *daemon
	conns []*conn
	acked []int    // acknowledged pushes per session
	last  [][]byte // last push response body per session
	// measured is when the measured phases began.
	measured time.Time
	// advisories are the daemon's final advisory per session, the wire
	// encoder replay's input.
	advisories []stream.Advisory
}

func runServing(r *run, w servingWorkload) error {
	s := &servingRun{run: r, w: w, types: heteroFleet()}
	if err := s.prepare(); err != nil {
		return err
	}
	defer s.shutdown()

	// The durable workload's set-up is its restarts' recovery, timed in
	// restart: its first set-up pays an fsync per warm-up push, and
	// fsync latency on a shared disk swings twofold within minutes.
	reps := setupReps
	if r.trace || w.durable {
		reps = 1
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			s.shutdownDaemon()
		}
		sec, err := s.setup()
		if err != nil {
			return err
		}
		setups = append(setups, sec)
	}
	if !w.durable {
		r.put("setup_s", median(setups))
	}

	timedTo := len(s.ss[0].lambda)
	if w.durable {
		timedTo-- // the last slot is the post-restart resume push
	}
	s.measured = time.Now()
	if err := s.timed(period, timedTo); err != nil {
		return err
	}
	if w.durable {
		if err := s.restart(timedTo); err != nil {
			return err
		}
	}
	s.check()
	if r.trace {
		return s.replay()
	}
	return nil
}

// prepare generates every input before any daemon starts.
func (s *servingRun) prepare() error {
	seeds, err := sessionSeeds(s.seed, s.w.name, s.w.sessions)
	if err != nil {
		return err
	}
	perSession := max(period, int(s.w.rate*float64(s.seconds)/float64(s.w.sessions)))
	if s.w.loadSlots > 0 {
		perSession = s.w.loadSlots
	}
	total := period + perSession
	if s.w.durable {
		total++
	}
	s.ss = make([]session, s.w.sessions)
	for i := range s.ss {
		ss := &s.ss[i]
		ss.id = fmt.Sprintf("%s-%02d", s.w.tag, i)
		ss.alg = algs[i%len(algs)]
		ss.path = "/v1/sessions/" + ss.id + "/push"
		ss.lambda = s.w.trace(seeds[i], total)
		ss.bodies = make([][]byte, total)
		for t, v := range ss.lambda {
			b, err := wire.AppendPushRequest(nil, &wire.PushRequest{Lambda: v})
			if err != nil {
				return err
			}
			ss.bodies[t] = b
		}
	}
	fleet, err := model.EncodeFleet(s.types)
	if err != nil {
		return err
	}
	s.fleet = serve.FleetJSON{Types: fleet}
	s.acked = make([]int, s.w.sessions)
	s.last = make([][]byte, s.w.sessions)
	s.base = filepath.Join(s.build, "run", fmt.Sprintf("%s-%d", s.w.name, os.Getpid()))
	if s.w.durable {
		live := filepath.Join(s.base, "live")
		s.args = []string{"-wal-dir", filepath.Join(live, "wal"), "-wal-sync", "always", "-snapshot-dir", filepath.Join(live, "snapshots")}
	}
	return nil
}

// setup is one timed set-up: daemon exec → healthz ready → sessions
// opened → one warm-up period pushed. The freshness self-check between
// ready and the first open is not timed.
func (s *servingRun) setup() (float64, error) {
	if err := os.RemoveAll(s.base); err != nil {
		return 0, err
	}
	clear(s.acked)
	start := time.Now()
	d, err := startDaemon(filepath.Join(s.build, "bin", "rightsized"), s.args...)
	if err != nil {
		return 0, err
	}
	s.d = d
	paused := time.Now()
	if err := d.checkFresh(); err != nil {
		return 0, err
	}
	start = start.Add(time.Since(paused))
	for i := range s.ss {
		body, err := json.Marshal(serve.OpenRequest{ID: s.ss[i].id, Alg: s.ss[i].alg, Fleet: s.fleet})
		if err != nil {
			return 0, err
		}
		s.attempted++
		resp, err := control.Post("http://"+d.addr+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		if resp.StatusCode != 201 {
			return 0, fmt.Errorf("open %s: HTTP %d", s.ss[i].id, resp.StatusCode)
		}
	}
	s.conns = make([]*conn, connections)
	for k := range s.conns {
		if s.conns[k], err = dial(d.addr); err != nil {
			return 0, err
		}
	}
	if st := s.drive(0, period, false); st.failed > 0 {
		return 0, fmt.Errorf("warm-up: %d pushes failed: %s", st.failed, st.firstErr)
	}
	return time.Since(start).Seconds(), nil
}

// shutdownDaemon closes the connections and SIGKILLs the daemon, if any.
func (s *servingRun) shutdownDaemon() {
	for _, c := range s.conns {
		c.close()
	}
	s.conns = nil
	if s.d != nil {
		s.d.kill()
		s.d = nil
	}
	control.CloseIdleConnections()
}

// shutdown stops the daemon and removes the run's files.
func (s *servingRun) shutdown() {
	s.shutdownDaemon()
	os.RemoveAll(s.base)
}

// span is one traced push: the session and slot it carried and its
// client-side start and end, in nanoseconds since the phase began.
type span struct {
	Session, Slot int
	Start, End    int64
}

// driveStats is what a closed-loop phase observed: the client round
// trips (µs) of acknowledged pushes, split by whether they were traced,
// and when each acknowledgement arrived (ns since the phase began), of
// every push and of each untraced one.
type driveStats struct {
	untraced   []float64
	untracedAt []int64
	traced     []float64
	acks       []int64
	spans      []span
	failed     int
	firstErr   string
}

func (st *driveStats) acked() int { return len(st.untraced) + len(st.traced) }

// drive pushes slots [from, to) to every session as a closed loop: each
// connection owns every connections-th session and sends them one slot
// at a time, round-robin, waiting for each reply. With tracing on, every
// other round records a span per request; the other rounds stay
// untraced so the two can be compared within the same phase.
func (s *servingRun) drive(from, to int, tracing bool) driveStats {
	per := make([]driveStats, len(s.conns))
	epoch := time.Now()
	var wg sync.WaitGroup
	for k := range s.conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := &per[k]
			st.untraced = make([]float64, 0, (to-from)*((len(s.ss)+len(s.conns)-1)/len(s.conns)))
			c := s.conns[k]
			for t := from; t < to; t++ {
				traced := tracing && t%2 == 1
				for i := k; i < len(s.ss); i += len(s.conns) {
					start := time.Now()
					code, body, err := c.post(s.ss[i].path, s.ss[i].bodies[t])
					end := time.Now()
					if err != nil || code != 200 {
						st.failed++
						if st.firstErr == "" {
							st.firstErr = fmt.Sprintf("%s slot %d: HTTP %d %v %s", s.ss[i].id, t+1, code, err, body)
						}
						if err != nil {
							return // the connection is gone
						}
						continue
					}
					s.acked[i]++
					us := float64(end.Sub(start).Nanoseconds()) / 1e3
					st.acks = append(st.acks, end.Sub(epoch).Nanoseconds())
					if traced {
						st.traced = append(st.traced, us)
						st.spans = append(st.spans, span{i, t + 1, start.Sub(epoch).Nanoseconds(), end.Sub(epoch).Nanoseconds()})
					} else {
						st.untraced = append(st.untraced, us)
						st.untracedAt = append(st.untracedAt, end.Sub(epoch).Nanoseconds())
					}
					if t == to-1 {
						s.last[i] = append(s.last[i][:0], body...)
					}
				}
			}
		}(k)
	}
	wg.Wait()
	var all driveStats
	for _, st := range per {
		all.untraced = append(all.untraced, st.untraced...)
		all.untracedAt = append(all.untracedAt, st.untracedAt...)
		all.traced = append(all.traced, st.traced...)
		all.acks = append(all.acks, st.acks...)
		all.spans = append(all.spans, st.spans...)
		all.failed += st.failed
		if all.firstErr == "" {
			all.firstErr = st.firstErr
		}
	}
	s.attempted += int64(all.acked() + all.failed)
	s.failed += int64(all.failed)
	return all
}

// timed runs the measured closed-loop phase over slots [from, to).
func (s *servingRun) timed(from, to int) error {
	before, err := s.d.scrape()
	if err != nil {
		return err
	}
	pid := s.d.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	self0 := selfCPUSeconds()
	steal0 := hostSteal()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	start := time.Now()
	st := s.drive(from, to, s.trace)
	wall := time.Since(start)

	runtime.ReadMemStats(&ms1)
	self1 := selfCPUSeconds()
	steal := hostSteal() - steal0
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	after, err := s.d.scrape()
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return err
	}
	if st.failed > 0 {
		s.note("FAIL: timed phase: %d pushes failed, first: %s", st.failed, st.firstErr)
	}
	if len(st.untraced) == 0 {
		return fmt.Errorf("timed phase acknowledged no untraced push")
	}

	if !s.w.durable {
		// The durable workload's operation is the resume push after a
		// restart; its push phase only builds the crash state.
		s.put("op_p50_ms", windowQuantile(st.untracedAt, st.untraced, wall, 0.5)/1e3)
		s.put("op_p90_ms", windowQuantile(st.untracedAt, st.untraced, wall, 0.9)/1e3)
		s.put("ops_per_s", windowRate(st.acks, wall))
	}
	sort.Float64s(st.untraced)
	p50 := quantile(st.untraced, 0.5)
	s.put("peak_rss_mb", rss)
	s.note("%s timed phase: %d pushes (%d untraced samples, %d traced) in %v; the host stole %.1f%% of the CPUs' time",
		s.w.name, st.acked(), len(st.untraced), len(st.traced), wall.Round(time.Millisecond),
		100*steal/(wall.Seconds()*float64(runtime.NumCPU())))

	delta := func(k string) float64 { return after[k] - before[k] }
	hits, misses := delta("rightsized_solver_memo_hits_total"), delta("rightsized_solver_memo_misses_total")
	hitRatio := hits / max(hits+misses, 1)
	if hitRatio < s.w.hitLo || hitRatio > s.w.hitHi {
		s.problem("self-check: memo hit ratio %.4f outside [%g, %g]: the workload left its regime", hitRatio, s.w.hitLo, s.w.hitHi)
	}
	slots := float64(st.acked())
	daemonCPU := cpu1 - cpu0
	clientCPU := self1 - self0
	serveP50 := histQuantile(before, after, "rightsized_push_latency_seconds", 0.5) * 1e6
	s.put("solver.memo_hit_ratio", hitRatio)
	s.put("dispatch.g_calls_per_slot", misses*float64(latticeCells(s.types))/slots)
	s.put("serve.push_p50_us", serveP50)
	s.put("http.overhead_p50_us", p50-serveP50)
	s.put("serve.cpu_us_per_slot", daemonCPU*1e6/slots)
	s.put("client.cpu_share", clientCPU/max(clientCPU+daemonCPU, 1e-9))
	s.put("client.allocs_per_push", float64(ms1.Mallocs-ms0.Mallocs)/slots)
	s.put("wal.fsyncs_per_push", delta("rightsized_wal_fsyncs_total")/slots)
	if s.trace {
		s.put("trace.overhead_pct", 100*(median(st.traced)-p50)/p50)
		if err := s.writeSpans(st.spans); err != nil {
			return err
		}
	}
	return nil
}

// phaseWindows is how many equal windows the timed phase is cut into:
// each end-to-end metric of a serving phase is the median of the
// windows' own values, so a stretch of the phase in which the host
// stalled the benchmark's CPUs moves it less than it moves the whole
// phase's figure.
const phaseWindows = 10

// window is the phase window an acknowledgement at ns falls in.
func window(ns int64, wall time.Duration) int {
	return min(int(ns/(wall.Nanoseconds()/phaseWindows+1)), phaseWindows-1)
}

// windowRate is the median over the phase windows of the
// acknowledgements per second in each.
func windowRate(acks []int64, wall time.Duration) float64 {
	width := wall.Nanoseconds()/phaseWindows + 1
	n := make([]float64, phaseWindows)
	for _, at := range acks {
		n[window(at, wall)]++
	}
	for w := range n {
		n[w] /= float64(width) / 1e9
	}
	return median(n)
}

// windowQuantile is the median over the phase windows of quantile q of
// the values acknowledged in each; at[j] is when vals[j] was.
func windowQuantile(at []int64, vals []float64, wall time.Duration, q float64) float64 {
	ws := make([][]float64, phaseWindows)
	for j, ns := range at {
		w := window(ns, wall)
		ws[w] = append(ws[w], vals[j])
	}
	var qs []float64
	for _, w := range ws {
		if len(w) > 0 {
			sort.Float64s(w)
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// writeSpans keeps the traced run's spans as JSON lines under the build
// directory, written once the measured phase is over.
func (s *servingRun) writeSpans(spans []span) error {
	dir := filepath.Join(s.build, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf []byte
	for _, sp := range spans {
		b, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		buf = append(append(buf, b...), '\n')
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", s.w.name, s.seed))
	s.note("%d spans written to %s", len(spans), path)
	return os.WriteFile(path, buf, 0o644)
}

// restart SIGKILLs the daemon after the timed phase and keeps a copy of
// its WAL and snapshot directories. Then, until --seconds have passed
// since the push phase began (at least 3 times), it restores that copy,
// restarts the daemon over it (exec → ready, during which RecoverWAL
// replays every log: the workload's set-up) and pushes slot
// resumeSlot+1 to each session once — the push that resumes it from its
// snapshot, the workload's operation. Every end-to-end metric is the
// median over the restarts of the restart's own value: recovery time,
// resume latency quantiles and sessions resumed per second of resume
// pushes. The last restarted daemon stays up for the correctness gate.
func (s *servingRun) restart(resumeSlot int) error {
	live, crash := filepath.Join(s.base, "live"), filepath.Join(s.base, "crash")
	s.shutdownDaemon()
	walBytes, err := dirBytes(filepath.Join(live, "wal"))
	if err != nil {
		return err
	}
	s.put("wal.bytes_per_slot", float64(walBytes)/float64(resumeSlot*len(s.ss)))
	if err := copyTree(live, crash); err != nil {
		return err
	}

	var recover, p50s, p90s, rates []float64
	samples := 0
	for rep := 0; rep < 3 || time.Since(s.measured) < time.Duration(s.seconds)*time.Second; rep++ {
		s.shutdownDaemon()
		if err := os.RemoveAll(live); err != nil {
			return err
		}
		if err := copyTree(crash, live); err != nil {
			return err
		}
		start := time.Now()
		d, err := startDaemon(filepath.Join(s.build, "bin", "rightsized"), s.args...)
		if err != nil {
			return err
		}
		s.d = d
		recover = append(recover, time.Since(start).Seconds())
		sc, err := d.scrape()
		if err != nil {
			return err
		}
		s.put("wal.recovered_sessions", sc["rightsized_wal_recovered_sessions_total"])

		c, err := dial(d.addr)
		if err != nil {
			return err
		}
		s.conns = []*conn{c}
		resumed := time.Now()
		var resume []float64
		for i := range s.ss {
			s.attempted++
			s.acked[i] = resumeSlot // the restored state
			start := time.Now()
			code, body, err := c.post(s.ss[i].path, s.ss[i].bodies[resumeSlot])
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			if err != nil {
				return fmt.Errorf("resume push %s: %w", s.ss[i].id, err)
			}
			if code != 200 {
				s.problem("resume push %s: HTTP %d %s", s.ss[i].id, code, body)
				continue
			}
			resume = append(resume, ms)
			s.acked[i]++
			s.last[i] = append(s.last[i][:0], body...)
		}
		rates = append(rates, float64(len(s.ss))/time.Since(resumed).Seconds())
		sort.Float64s(resume)
		p50s = append(p50s, quantile(resume, 0.5))
		p90s = append(p90s, quantile(resume, 0.9))
		samples += len(resume)
	}
	s.put("setup_s", median(recover))
	s.put("op_p50_ms", median(p50s))
	s.put("op_p90_ms", median(p90s))
	s.put("ops_per_s", median(rates))
	s.note("%s: %d restarts, %d resume samples", s.w.name, len(recover), samples)
	return nil
}

// copyTree copies the directory tree src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// check is the correctness gate, run after the measured phases. Every
// session was fed exactly the slots it was sent (so no acknowledged slot
// was lost, across the SIGKILL too), its cum_cost equals the final
// advisory's and, for the first session of each algorithm, that of an
// in-process reference fed the same trace, bit for bit; the first
// session's telemetry optimum matches the offline solver.
func (s *servingRun) check() {
	finals := make([]stream.Advisory, len(s.ss))
	ratio := 0.0
	for i := range s.ss {
		ss := &s.ss[i]
		s.attempted++
		var res serve.PushResult
		if err := json.Unmarshal(s.last[i], &res); err != nil || !res.Decided || res.Advisory == nil {
			s.problem("%s: final push result %q undecided or unreadable (%v)", ss.id, s.last[i], err)
			continue
		}
		finals[i] = *res.Advisory
		info, err := s.info(ss.id)
		switch {
		case err != nil:
			s.problem("%s: %v", ss.id, err)
		case info.Fed != len(ss.lambda) || s.acked[i] != len(ss.lambda):
			s.problem("%s: fed %d, acknowledged %d, sent %d", ss.id, info.Fed, s.acked[i], len(ss.lambda))
		case finals[i].Slot != info.Fed || finals[i].CumCost != info.CumCost:
			s.problem("%s: final advisory slot %d cum_cost %v, session fed %d cum_cost %v",
				ss.id, finals[i].Slot, finals[i].CumCost, info.Fed, info.CumCost)
		}
		ratio += finals[i].CumCost / finals[i].Opt
	}
	s.advisories = finals
	s.put("cost_ratio", ratio/float64(len(s.ss)))

	// One reference per algorithm (sessions 0..2), plus the optimum check.
	errs := make([]error, len(algs)+1)
	var wg sync.WaitGroup
	for i := range algs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.reference(i, finals[i])
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[len(algs)] = s.checkOpt(finals[0])
	}()
	wg.Wait()
	for _, err := range errs {
		s.attempted++
		if err != nil {
			s.problem("%v", err)
		}
	}
	if sc, err := s.d.scrape(); err != nil || sc["rightsized_sessions_evicted_total"] != 0 {
		s.problem("self-check: sessions were evicted or metrics unreadable (%v): the janitor must be off", err)
	}
}

// info reads a session's state.
func (s *servingRun) info(id string) (serve.SessionInfo, error) {
	var info serve.SessionInfo
	resp, err := control.Get("http://" + s.d.addr + "/v1/sessions/" + id)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return info, fmt.Errorf("GET session: HTTP %d", resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// reference feeds session i's trace to an in-process session and
// compares the final advisory bit for bit.
func (s *servingRun) reference(i int, got stream.Advisory) error {
	ss := &s.ss[i]
	sess, err := engine.OpenSession(ss.alg, s.types, stream.Options{})
	if err != nil {
		return err
	}
	var adv stream.Advisory
	for t, v := range ss.lambda {
		if _, err := sess.Push(model.SlotInput{T: t + 1, Lambda: v}, &adv); err != nil {
			return fmt.Errorf("%s reference slot %d: %w", ss.id, t+1, err)
		}
	}
	if math.Float64bits(adv.CumCost) != math.Float64bits(got.CumCost) || adv.Slot != got.Slot {
		return fmt.Errorf("%s (%s): daemon cum_cost %v at slot %d, reference %v at slot %d",
			ss.id, ss.alg, got.CumCost, got.Slot, adv.CumCost, adv.Slot)
	}
	return nil
}

// checkOpt compares session 0's telemetry optimum with the offline
// solver's optimum of the same trace.
func (s *servingRun) checkOpt(got stream.Advisory) error {
	ins := &model.Instance{Types: s.types, Lambda: s.ss[0].lambda}
	opt, err := solver.OptimalCost(ins)
	if err != nil {
		return err
	}
	if math.Abs(opt-got.Opt) > 1e-9*opt {
		return fmt.Errorf("%s: telemetry opt %v, offline OptimalCost %v", s.ss[0].id, got.Opt, opt)
	}
	return nil
}

// histQuantile interpolates quantile q of the observations a Prometheus
// histogram gained between two scrapes.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				continue // +Inf
			}
			bs = append(bs, bucket{le, v - before[k]})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := after[name+"_count"] - before[name+"_count"]
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank && b.n > prev {
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
