// Command benchmark is the repository benchmark: MaJIC's two claims —
// compiled MATLAB is fast, and compiling it keeps the system responsive
// — measured end to end on two workloads, with a separate traced run
// that times each layer from outside by wrapping calls to the layer's
// public functions.
//
//	bash benchmark/run.sh --workload table1-fleet --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is the result object; the line
// before it is the full report (envelope, per-program rows, checks,
// tracing overhead), also written under the output directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// workload is one set of inputs. Every workload reports every
// end-to-end metric: armsShare of the measured window runs the
// in-process arms over progs, the rest (if any) drives the fleet.
type workload struct {
	name      string
	progs     func() []*program
	armsShare float64
}

var workloads = []workload{
	{"table1-fleet", func() []*program { return table1Programs(bench.Small) }, 0.5},
	{"solver-paper", solverPrograms, 1},
}

// phaseBlock is the length of one arms-then-fleet block on a workload
// with a fleet. The two phases alternate in blocks, so both sample the
// same stretch of the run instead of one half each.
const phaseBlock = 6 * time.Second

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// metricSpec is one metric as BENCHMARK.json declares it; the run
// reports exactly the declared metrics, with the declared units.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchmarkSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload name: table1-fleet or solver-paper")
	seed := flag.Int64("seed", 1, "seed for the generated order, mix and keys")
	seconds := flag.Int("seconds", 50, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span and report files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, out: *out}
	res, rep, err := r.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rb, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *trace)
	if err := os.WriteFile(filepath.Join(*out, name), rb, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

type runner struct {
	w      *workload
	seed   int64
	window time.Duration
	out    string
}

// state is one set-up of the workload.
type state struct {
	arms  *armsState
	fleet *fleet // nil unless the run drives a fleet
}

func (s *state) close() {
	if s.fleet != nil {
		s.fleet.stop()
	}
	if s.arms != nil {
		s.arms.close()
	}
}

// setup builds the workload's inputs, references, snapshots and
// long-lived engines, and the fleet when withFleet. The fleet serves the
// workload's own programs on table1-fleet and the Table 1 small programs
// in solver-paper's traced fleet probe.
func (r *runner) setup(withFleet bool, ck *checker) (*state, error) {
	progs := r.w.progs()
	st := &state{}
	var err error
	if st.arms, err = setupArms(progs, ck); err != nil {
		return nil, err
	}
	if withFleet {
		fprogs := progs
		if r.w.armsShare == 1 {
			fprogs = table1Programs(bench.Small)
			for _, p := range fprogs {
				if err := p.prepare(); err != nil {
					st.close()
					return nil, err
				}
			}
		}
		if st.fleet, err = startFleet(fprogs, rand.New(rand.NewSource(r.seed))); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// e2e holds one measurement of the end-to-end metrics.
type e2e struct {
	arms  *armResults
	fleet *fleetStats
}

// measure runs the workload's phases for d. Without a fleet the arms
// take all of it; with one, each phaseBlock runs the in-process arms for
// armsShare of the block (whole passes, so they may run over) and the
// fleet until the block ends.
func (r *runner) measure(st *state, d time.Duration, passRng *rand.Rand, tr *tracer, lay *layers, ck *checker) (*e2e, error) {
	m := &e2e{arms: newArmResults()}
	end := time.Now().Add(d)
	if r.w.armsShare == 1 {
		if err := st.arms.passes(passRng, end, tr, ck, m.arms, lay); err != nil {
			return nil, err
		}
		return m, nil
	}
	m.fleet = &fleetStats{}
	for t0 := time.Now(); t0.Before(end); t0 = time.Now() {
		blk := min(phaseBlock, end.Sub(t0))
		if err := st.arms.passes(passRng, t0.Add(time.Duration(float64(blk)*r.w.armsShare)), tr, ck, m.arms, lay); err != nil {
			return nil, err
		}
		fs, err := st.fleet.run(passRng.Int63(), t0.Add(blk), tr, ck)
		if err != nil {
			return nil, err
		}
		m.fleet.merge(fs)
	}
	return m, nil
}

// values reduces a measurement to the end-to-end metrics (all but
// setup_s and max_rss_mb).
func (m *e2e) values() map[string]float64 {
	v := make(map[string]float64)
	for _, arm := range firstArms {
		v[arm+".first_call_ms"] = m.arms.geomeanOfMedians(arm + ".first_call_ms")
	}
	for _, arm := range steadyArms {
		v[arm+".call_ms"] = m.arms.geomeanOfMedians(arm + ".call_ms")
	}
	ev, wall := m.evals()
	v["eval_ms.p50"] = ev.p50()
	v["eval_ms.p99"] = quantile(ev.all.sorted(), 0.99)
	v["evals_per_s"] = float64(len(ev.all)) / wall.Seconds()
	return v
}

// evals returns the workload's user-visible ops: the fleet's call evals,
// or on workloads without a fleet phase every timed in-process call.
func (m *e2e) evals() (*evals, time.Duration) {
	if m.fleet != nil {
		return &m.fleet.evals, m.fleet.wall
	}
	return &m.arms.evals, m.arms.wall
}

type programRow struct {
	Program string `json:"program"`
	summary
}

func (m *e2e) rows() map[string][]programRow {
	out := make(map[string][]programRow)
	for metric, per := range m.arms.perProg {
		for prog, s := range per {
			out[metric] = append(out[metric], programRow{prog, s.summary()})
		}
		sort.Slice(out[metric], func(i, j int) bool { return out[metric][i].Program < out[metric][j].Program })
	}
	return out
}

func (r *runner) run(traced bool) (*result, map[string]any, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return nil, nil, err
	}
	ck := &checker{}
	rep := map[string]any{
		"envelope": envelope(r.seed),
		"workload": r.w.name,
		"seconds":  r.window.Seconds(),
		"trace":    traced,
	}
	metrics := make(map[string]metricOut)
	summaries := make(map[string]any)

	reps := setupReps
	if traced {
		reps = 1
	}
	var setupS samples
	var st *state
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := r.setup(traced || r.w.armsShare < 1, ck)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < reps-1 {
			s.close()
		} else {
			st = s
		}
		// Return set-up garbage so the peak RSS of the run does not
		// depend on where the collector happened to stand.
		debug.FreeOSMemory()
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	summaries["setup_s"] = setupS.summary()
	passRng := rand.New(rand.NewSource(r.seed + 1))

	var values map[string]float64
	declared := spec.EndToEnd
	if !traced {
		peak := startPeakMemory()
		m, err := r.measure(st, r.window, passRng, nil, nil, ck)
		peakMB := peak.stop()
		if err != nil {
			return nil, nil, err
		}
		values = m.values()
		values["setup_s"] = setupS.median()
		values["max_rss_mb"] = peakMB
		st.close()
		st = nil
		rep["rows"] = m.rows()
		ev, _ := m.evals()
		summaries["eval_ms"] = ev.all.summary()
	} else {
		lay, err := r.tracedRun(st, passRng, ck, rep)
		if err != nil {
			return nil, nil, err
		}
		st = nil
		lay.values["check.bitwise_mismatches"] = float64(ck.bitwise)
		values = lay.values
		rep["layers"] = lay.report
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("the run produced no %s", m.Name)
		}
		metrics[m.Name] = metricOut{v, m.Unit}
	}

	// Isolation between arms: nothing may have switched on the buffer
	// pool or changed the kernel thread count for the whole process.
	isolated := !mat.PoolEnabled() && parallel.DefaultThreads() == runtime.GOMAXPROCS(0)
	errorRate := float64(ck.failed) / math.Max(1, float64(ck.attempted))
	rep["summaries"] = summaries
	rep["metrics"] = metrics
	rep["check"] = map[string]any{
		"attempted":          ck.attempted,
		"failed":             ck.failed,
		"error_rate":         errorRate,
		"bitwise_mismatches": ck.bitwise,
		"first_failure":      ck.firstErr,
		"isolation_ok":       isolated,
		"pool_enabled":       mat.PoolEnabled(),
		"default_threads":    parallel.DefaultThreads(),
	}
	res := &result{
		Correct:   ck.failed == 0 && isolated,
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Metrics:   metrics,
	}
	return res, rep, nil
}

// tracedRun measures the workload untraced and traced for equal shares
// of the window (their difference is the tracing overhead), with a
// fleet probe for workloads that have no fleet phase, then runs the
// kernel and runtime probes on what is left.
func (r *runner) tracedRun(st *state, passRng *rand.Rand, ck *checker, rep map[string]any) (*layers, error) {
	defer st.close()
	lay := newLayers()
	tr := newTracer()
	half := time.Duration(float64(r.window) * 0.35)

	untraced, err := r.measure(st, half, passRng, nil, nil, ck)
	if err != nil {
		return nil, err
	}
	f := st.fleet
	g0 := f.gw.Stats()
	ins0, hits0, look0 := f.nodeTotals()
	tracedM, err := r.measure(st, half, passRng, tr, lay, ck)
	if err != nil {
		return nil, err
	}
	fs := tracedM.fleet
	if fs == nil {
		// No fleet phase in this workload: probe the fleet for the
		// server and cluster layers, traced, for a fixed share.
		fs, err = f.run(passRng.Int63(), time.Now().Add(time.Duration(float64(r.window)*0.15)), tr, ck)
		if err != nil {
			return nil, err
		}
	}
	g1 := f.gw.Stats()
	ins1, hits1, look1 := f.nodeTotals()
	requests := float64(len(fs.evals.all))
	lay.values["server.overhead_us"] = fs.overheadUS.median()
	lay.values["engine.eval_us"] = fs.elapsedUS.median()
	lay.values["server.rejected"] = float64(fs.rejected)
	lay.values["gateway.hop_us"] = (fs.evals.all.median() - fs.directMS.median()) * 1e3
	lay.values["gateway.retries"] = float64(g1.Retries - g0.Retries)
	lay.values["gateway.errors"] = float64(g1.Errors - g0.Errors)
	lay.values["fleet.compiles_per_kreq"] = float64(ins1-ins0) * 1000 / math.Max(1, requests)
	lay.values["fleet.hit_rate"] = float64(hits1-hits0) / math.Max(1, float64(look1-look0))
	maxNode := 0
	for _, n := range f.perNode {
		maxNode = max(maxNode, n)
	}
	lay.values["fleet.sessions_max_node"] = float64(maxNode)
	lay.values["replication.lag_ms"] = fs.lagMS.median()
	lay.report["replication"] = map[string]any{"lag_ms": fs.lagMS.summary(), "timeouts": fs.lagTimeout}
	lay.report["fleet_sessions_per_node"] = f.perNode
	f.stop()
	st.fleet = nil

	// Pipeline, dispatch, snapshot and tiering layers from the traced
	// arm passes.
	for _, m := range []string{
		"parser.parse_us", "inline.expand_us", "disambig.analyze_us", "infer.forward_us",
		"codegen.compile_us", "regalloc.allocate_us", "vm.prepare_us", "opt.run_us",
		"opt.ir_instrs", "codegen.ir_instrs", "regalloc.spill_slots", "vm.run_us",
		"persist.decode_us", "core.load_snapshot_us",
	} {
		lay.values[m] = lay.sumOfMedians(m)
	}
	// Dispatch is a few microseconds per call, below the run-to-run
	// noise of the longer programs' vm.Run, so it is the median over
	// programs (a typical call) rather than a sum that those programs'
	// noise would swamp.
	var dispatch samples
	for _, s := range lay.perProg["core.dispatch_us"] {
		dispatch = append(dispatch, s.median())
	}
	lay.values["core.dispatch_us"] = dispatch.median()
	progs := float64(len(lay.perProg["repo.lookups_per_call"]))
	lay.values["repo.lookups_per_call"] = lay.sumOfMedians("repo.lookups_per_call") / math.Max(1, progs)
	nt := math.Max(1, lay.counts["tiered.first_calls"])
	for _, m := range []string{"profile.promotions", "profile.osr_transfers", "profile.osr_deopts", "compilequeue.wait_us"} {
		lay.values[m] = lay.counts[m] / nt * progs
	}
	lay.reconcile()
	// Compile-result counts must repeat exactly from pass to pass.
	for _, m := range []string{"codegen.ir_instrs", "regalloc.spill_slots", "opt.ir_instrs", "repo.lookups_per_call"} {
		for _, s := range lay.perProg[m] {
			for _, v := range s {
				if v != s[0] {
					lay.count("check.determinism_mismatches", 1)
					break
				}
			}
		}
	}

	if err := lay.runtimeProbe(st.arms.steady["jit"], ck); err != nil {
		return nil, err
	}
	lay.values["check.determinism_mismatches"] = lay.counts["check.determinism_mismatches"]
	lay.kernelProbe(time.Now().Add(time.Duration(float64(r.window) * 0.1)))

	// Tracing overhead: traced minus untraced value of every end-to-end
	// metric the two phases share.
	u, t := untraced.values(), tracedM.values()
	overhead := make(map[string]float64)
	var ratios []float64
	for name, uv := range u {
		overhead[name] = t[name] - uv
		if strings.HasSuffix(name, "_ms") || strings.HasPrefix(name, "eval_ms") {
			ratios = append(ratios, t[name]/uv)
		}
	}
	lay.values["trace.overhead_pct"] = (geomean(ratios) - 1) * 100
	rep["trace_overhead"] = overhead
	rep["untraced"] = u
	rep["traced"] = t

	path := filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep["trace_file"] = path
	rep["trace_self_us"] = tr.selfTimes()
	return lay, nil
}

// peakMemory samples the Go runtime's resident memory — everything it
// has mapped minus what it has returned to the operating system — every
// few milliseconds during the measured window. max_rss_mb is the median
// over one-second intervals of each interval's peak: the workload's own
// peak footprint, without the set-up garbage and single collector
// hiccups that make the process-lifetime peak RSS wander.
type peakMemory struct {
	stopc chan struct{}
	done  chan float64
}

func startPeakMemory() *peakMemory {
	p := &peakMemory{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		var peaks samples
		peak, since := 0.0, time.Now()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = math.Max(peak, float64(s[0].Value.Uint64()-s[1].Value.Uint64())/(1<<20))
			if time.Since(since) >= time.Second {
				peaks = append(peaks, peak)
				peak, since = 0, time.Now()
			}
			select {
			case <-p.stopc:
				p.done <- append(peaks, peak).median()
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *peakMemory) stop() float64 {
	close(p.stopc)
	return <-p.done
}

// envelope records what produced the numbers.
func envelope(seed int64) map[string]any {
	// The commit is recorded only when the working directory is itself
	// the top of a git work tree (not a directory inside another one).
	commit := "unknown"
	wd, _ := os.Getwd()
	if b, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 && f[0] == wd {
			commit = f[1]
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"source_sha": sourceDigest(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"seed":       seed,
	}
}

// sourceDigest hashes every Go source and go.mod under the working
// directory (the checkout root), so a result names its code even where
// the checkout is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".s")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
