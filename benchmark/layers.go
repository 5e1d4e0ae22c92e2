package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/sparse"
	"repro/internal/types"
	"repro/internal/vm"
)

// layers collects the traced run's per-layer measurements: per-program
// series (mostly reduced to a sum over programs of each program's
// median, so a value reads as "one pass over the workload's programs")
// and plain counters.
type layers struct {
	perProg map[string]map[string]samples
	counts  map[string]float64
	values  map[string]float64
	report  map[string]any
}

func newLayers() *layers {
	return &layers{
		perProg: make(map[string]map[string]samples),
		counts:  make(map[string]float64),
		values:  make(map[string]float64),
		report:  make(map[string]any),
	}
}

func (l *layers) add(metric, prog string, v float64) {
	m := l.perProg[metric]
	if m == nil {
		m = make(map[string]samples)
		l.perProg[metric] = m
	}
	m[prog] = append(m[prog], v)
}

func (l *layers) count(metric string, v float64) { l.counts[metric] += v }

func (l *layers) sumOfMedians(metric string) float64 {
	total := 0.0
	for _, s := range l.perProg[metric] {
		total += s.median()
	}
	return total
}

// pipelineProbe replays, outside the engine, every compile the engine
// just made for its first call — the same passes in the same order with
// the same signature (types.SignatureOf of the arguments, widened as the
// repository stored it) — timing each layer's public function. It then
// sets the wrapped totals beside the engine's own Figure 6 phase times
// for the same compile, for the reconciliation check.
func (l *layers) pipelineProbe(p *program, e *core.Engine, tr *tracer, op int64) error {
	eng := e.Timing()
	sp := tr.begin("probe.pipeline", 0, op)
	defer sp.end()

	c := tr.begin("parser.Parse", sp.id, op)
	if _, err := parser.Parse(p.src); err != nil {
		return fmt.Errorf("%s: parse: %w", p.name, err)
	}
	l.add("parser.parse_us", p.name, us(c.end()))

	var sum passTimes
	for _, name := range e.Functions() {
		fn := e.LookupFunction(name)
		for _, entry := range e.Repo().Entries(name) {
			sum.addUp(replay(fn, entry.Sig, e, tr, sp.id, op))
		}
	}
	l.add("inline.expand_us", p.name, us(sum.inline))
	l.add("disambig.analyze_us", p.name, us(sum.disambig))
	l.add("infer.forward_us", p.name, us(sum.infer))
	l.add("codegen.compile_us", p.name, us(sum.codegen))
	l.add("regalloc.allocate_us", p.name, us(sum.regalloc))
	l.add("vm.prepare_us", p.name, us(sum.prepare))
	l.add("opt.run_us", p.name, us(sum.opt))
	l.add("codegen.ir_instrs", p.name, float64(sum.irInstrs))
	l.add("regalloc.spill_slots", p.name, float64(sum.spills))
	l.add("opt.ir_instrs", p.name, float64(sum.optInstrs))

	// Reconciliation pairs: the engine's Disambig phase covers inlining,
	// CFG construction and disambiguation; TypeInf covers inference;
	// Codegen covers code generation, register allocation and Prepare.
	l.add("recon.engine.disambig_us", p.name, float64(eng.Disambig)/1e3)
	l.add("recon.wrapped.disambig_us", p.name, us(sum.inline+sum.disambig))
	l.add("recon.engine.typeinf_us", p.name, float64(eng.TypeInf)/1e3)
	l.add("recon.wrapped.typeinf_us", p.name, us(sum.infer))
	l.add("recon.engine.codegen_us", p.name, float64(eng.Codegen)/1e3)
	l.add("recon.wrapped.codegen_us", p.name, us(sum.codegen+sum.regalloc+sum.prepare))
	return nil
}

type passTimes struct {
	inline, disambig, infer, codegen, regalloc, prepare, opt time.Duration
	irInstrs, spills, optInstrs                              int
}

func (a *passTimes) addUp(b passTimes) {
	a.inline += b.inline
	a.disambig += b.disambig
	a.infer += b.infer
	a.codegen += b.codegen
	a.regalloc += b.regalloc
	a.prepare += b.prepare
	a.opt += b.opt
	a.irInstrs += b.irInstrs
	a.spills += b.spills
	a.optInstrs += b.optInstrs
}

// replay runs the JIT pipeline for one (function, signature) and, on a
// separate copy, the tier-up optimizer. A pass that rejects the
// function ends the replay there, as it ends the engine's compile.
func replay(fn *ast.Function, sig types.Signature, e *core.Engine, tr *tracer, parent, op int64) passTimes {
	var pt passTimes
	front := func(tr *tracer) (*ast.Function, *cfg.Graph, *disambig.Table, *infer.Result, bool) {
		c := tr.begin("inline.Expand", parent, op)
		work := inline.Expand(fn, e)
		pt.inline += c.end()
		c = tr.begin("cfg.Build+disambig.Analyze", parent, op)
		g := cfg.Build(work.Body)
		tbl := disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(name string) bool {
			return e.LookupFunction(name) != nil
		}))
		pt.disambig += c.end()
		if tbl.HasAmbiguous || len(sig) != len(work.Ins) {
			return nil, nil, nil, nil, false
		}
		params := make(map[string]types.Type, len(work.Ins))
		for i, name := range work.Ins {
			params[name] = sig[i]
		}
		c = tr.begin("infer.Forward", parent, op)
		res := infer.Forward(g, params, infer.Opts{})
		pt.infer += c.end()
		return work, g, tbl, res, true
	}
	work, _, tbl, res, ok := front(tr)
	if !ok {
		return pt
	}
	c := tr.begin("codegen.Compile", parent, op)
	prog, err := codegen.Compile(work, res, tbl, codegen.DefaultConfig())
	pt.codegen += c.end()
	if err != nil {
		return pt
	}
	pt.irInstrs = len(prog.Ins)
	c = tr.begin("regalloc.Allocate", parent, op)
	regalloc.Allocate(prog, regalloc.DefaultOptions())
	pt.regalloc += c.end()
	pt.spills = int(prog.SlotsF + prog.SlotsI + prog.SlotsC + prog.SlotsV)
	c = tr.begin("vm.Prepare", parent, op)
	_, err = vm.Prepare(prog)
	pt.prepare += c.end()
	if err != nil {
		return pt
	}

	// Tier-up quality: the optimizing configuration the engine's
	// promotion compile uses on the default platform (unroll factor 2).
	// Its own front-end passes are not counted again.
	saved := pt
	work, _, tbl, res, _ = front(nil)
	pt = saved
	ocfg := codegen.DefaultConfig()
	ocfg.UnrollLoops = 2
	oprog, err := codegen.Compile(work, res, tbl, ocfg)
	if err != nil {
		return pt
	}
	oc := opt.DefaultConfig()
	oc.UnrollFactor = 2
	c = tr.begin("opt.Run", parent, op)
	opt.Run(oprog, oc)
	pt.opt = c.end()
	pt.optInstrs = len(oprog.Ins)
	return pt
}

// steadyProbe makes two extra calls on the JIT steady engine: one
// through Engine.Call with the repository's lookup counter read around
// it, and one straight into vm.Run with the engine as host. Their
// difference, paired per pass, is the engine's dispatch overhead.
func (l *layers) steadyProbe(s *steadyEngine, ck *checker) error {
	if err := s.ensureRefs(ck); err != nil {
		return err
	}
	before := s.e.Repo().Stats().Lookups
	t0 := time.Now()
	outs, err := s.e.Call(s.p.fn, s.p.args, 1)
	d := time.Since(t0)
	lookups := s.e.Repo().Stats().Lookups - before
	ck.check("jit/"+s.p.name+" probe call", outs, err, s.p.ref(s.pos))
	s.pos++
	l.add("repo.lookups_per_call", s.p.name, float64(lookups))

	if err := s.ensureRefs(ck); err != nil {
		return err
	}
	outs, dRun, ok, err := directRun(s)
	if !ok {
		return nil // served by the interpreter: no vm.Run to set against
	}
	ck.check("jit/"+s.p.name+" vm.Run", outs, err, s.p.ref(s.pos))
	s.pos++
	l.add("core.dispatch_us", s.p.name, us(d-dRun))
	l.add("vm.run_us", s.p.name, us(dRun))
	return nil
}

// directRun times vm.Run of the engine's compiled entry for the
// program's signature with the engine as host; ok is false when the
// program has no compiled entry (the interpreter serves it).
func directRun(s *steadyEngine) (outs []*mat.Value, d time.Duration, ok bool, err error) {
	entry := s.e.Repo().Lookup(s.p.fn, types.SignatureOf(s.p.args))
	if entry == nil || entry.Code == nil {
		return nil, 0, false, nil
	}
	t0 := time.Now()
	outs, err = vm.Run(entry.Code, s.e, s.p.args)
	return outs, time.Since(t0), true, err
}

// runtimeProbe measures allocation over `rounds` steady JIT calls of
// every program: once with the collector running (bytes, collections,
// pool hits), then twice with it paused, whose malloc counts must be
// identical (the determinism self-check; a collection mid-measurement
// empties sync.Pools and so moves the count).
func (l *layers) runtimeProbe(steady []*steadyEngine, ck *checker) error {
	const rounds = 3
	type meas struct {
		allocKB, mallocs, gcs float64
		gets, hits            uint64
	}
	measure := func() (meas, error) {
		for _, s := range steady {
			if s.p.usesRand && s.pos+rounds > len(s.p.refs) {
				s.pos = len(s.p.refs)
				if err := s.ensureRefs(ck); err != nil {
					return meas{}, err
				}
			}
		}
		var m0, m1 runtime.MemStats
		p0 := mat.ReadPoolStats()
		runtime.ReadMemStats(&m0)
		type res struct {
			outs []*mat.Value
			err  error
		}
		results := make([]res, 0, rounds*len(steady))
		for r := 0; r < rounds; r++ {
			for _, s := range steady {
				outs, err := s.e.Call(s.p.fn, s.p.args, 1)
				results = append(results, res{outs, err})
			}
		}
		runtime.ReadMemStats(&m1)
		p1 := mat.ReadPoolStats()
		k := 0
		for r := 0; r < rounds; r++ {
			for _, s := range steady {
				ck.check("jit/"+s.p.name+" runtime probe", results[k].outs, results[k].err, s.p.ref(s.pos))
				s.pos++
				k++
			}
		}
		n := float64(rounds * len(steady))
		return meas{
			allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n,
			mallocs: float64(m1.Mallocs-m0.Mallocs) / n,
			gcs:     float64(m1.NumGC-m0.NumGC) / n,
			gets:    p1.Gets - p0.Gets,
			hits:    p1.Hits - p0.Hits,
		}, nil
	}
	a, err := measure()
	if err != nil {
		return err
	}
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	b, err := measure()
	if err != nil {
		debug.SetGCPercent(gcPercent)
		return err
	}
	c, err := measure()
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return err
	}
	if b.mallocs != c.mallocs {
		l.count("check.determinism_mismatches", 1)
	}
	l.report["determinism.mallocs_per_call"] = []float64{b.mallocs, c.mallocs}
	l.values["runtime.alloc_kb_per_call"] = a.allocKB
	l.values["runtime.mallocs_per_call"] = b.mallocs
	l.values["runtime.gc_per_call"] = a.gcs
	rate := 0.0
	if a.gets > 0 {
		rate = float64(a.hits) / float64(a.gets)
	}
	l.values["mat.pool_hit_rate"] = rate
	return nil
}

// kernelProbe times the dense and sparse kernels directly at the solver
// workload's own shapes: n = 420 dense (the paper size of cgopt, qmr and
// sor) and the sparse cg operator. Each value is the median per-call
// time over batches.
func (l *layers) kernelProbe(deadline time.Time) {
	// cgopt's paper-preset arguments: the 420 x 420 SPD system.
	ab := bench.ByName("cgopt").Args(bench.Paper)
	a, x := ab[0], ab[1]
	n := a.Rows()
	y := make([]float64, n)
	sp := pentaOperator(cgSparseN)
	_, _, rowPtr, colIdx, val := mat.SparseCSR(sp)
	sx := make([]float64, cgSparseN)
	for i := range sx {
		sx[i] = 1
	}
	sy := make([]float64, cgSparseN)

	var sink *mat.Value
	kernels := []struct {
		name string
		fn   func()
	}{
		{"blas.dgemv_us", func() { blas.Dgemv(false, n, n, 1, a.Re(), n, x.Re(), 0, y) }},
		{"blas.dgemv_t_us", func() { blas.Dgemv(true, n, n, 1, a.Re(), n, x.Re(), 0, y) }},
		{"mat.transpose_us", func() { sink, _ = mat.Transpose(a) }},
		{"mat.mul_mv_us", func() { sink, _ = mat.Mul(a, x) }},
		{"mat.elemwise_us", func() { sink, _ = mat.Add(x, x) }},
		{"mat.new_us", func() { sink = mat.New(n, n) }},
		{"sparse.spmv_us", func() { sparse.SpMV(cgSparseN, rowPtr, colIdx, val, 1, sx, 0, sy) }},
	}
	per := make(map[string]samples)
	for round := 0; round == 0 || (round < 50 && time.Now().Before(deadline)); round++ {
		for _, k := range kernels {
			reps := 1
			for {
				t0 := time.Now()
				for r := 0; r < reps; r++ {
					k.fn()
				}
				d := time.Since(t0)
				if d >= 200*time.Microsecond || reps >= 1<<16 {
					per[k.name] = append(per[k.name], us(d)/float64(reps))
					break
				}
				reps *= 4
			}
		}
	}
	_ = sink
	for name, s := range per {
		l.values[name] = s.median()
	}
}

// reconcile compares, per program, the medians of the wrapped pass
// times with the engine's own phase times for the same compiles. A
// program whose total differs by more than a factor of two counts as a
// reconciliation failure.
func (l *layers) reconcile() {
	type row struct {
		Program           string  `json:"program"`
		EngineUS          float64 `json:"engine_us"`
		WrappedUS         float64 `json:"wrapped_us"`
		Ratio             float64 `json:"ratio"`
		DisambigEngineUS  float64 `json:"disambig_engine_us"`
		DisambigWrappedUS float64 `json:"disambig_wrapped_us"`
		TypeinfEngineUS   float64 `json:"typeinf_engine_us"`
		TypeinfWrappedUS  float64 `json:"typeinf_wrapped_us"`
		CodegenEngineUS   float64 `json:"codegen_engine_us"`
		CodegenWrappedUS  float64 `json:"codegen_wrapped_us"`
	}
	var rows []row
	fails := 0
	for prog := range l.perProg["recon.engine.codegen_us"] {
		med := func(m string) float64 { return l.perProg[m][prog].median() }
		r := row{
			Program:           prog,
			DisambigEngineUS:  med("recon.engine.disambig_us"),
			DisambigWrappedUS: med("recon.wrapped.disambig_us"),
			TypeinfEngineUS:   med("recon.engine.typeinf_us"),
			TypeinfWrappedUS:  med("recon.wrapped.typeinf_us"),
			CodegenEngineUS:   med("recon.engine.codegen_us"),
			CodegenWrappedUS:  med("recon.wrapped.codegen_us"),
		}
		r.EngineUS = r.DisambigEngineUS + r.TypeinfEngineUS + r.CodegenEngineUS
		r.WrappedUS = r.DisambigWrappedUS + r.TypeinfWrappedUS + r.CodegenWrappedUS
		if r.EngineUS > 0 {
			r.Ratio = r.WrappedUS / r.EngineUS
		}
		if r.Ratio < 0.5 || r.Ratio > 2 {
			fails++
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Program < rows[j].Program })
	l.values["check.reconcile_failures"] = float64(fails)
	l.report["reconciliation"] = rows
}
