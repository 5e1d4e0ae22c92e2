package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm"
)

// repoState adapts the code repository to the engine: it implements the
// paper's invocation protocol — the front end passes (function name,
// argument values) to the repository, the function locator retrieves
// safe compiled code by type-signature matching, and a miss triggers
// JIT compilation (or, in speculative mode, usually hits ahead-of-time
// compiled code).
//
// With Options.AsyncCompile, misses do not compile on the caller's
// goroutine: they enqueue a job on the engine's worker pool, keyed by
// (function, widened signature, generation) so concurrent misses on the
// same key coalesce into a single compile (single flight). The tier
// decides what the caller does while the job runs — see invokeAsync.
type repoState struct {
	e *Engine
	r *repo.Repository
	// callDepth tracks nesting so execution time is only accumulated at
	// the outermost invocation (Figure 6 decomposition). It is atomic
	// because async mode allows concurrent callers; under concurrency
	// the "outermost" attribution becomes approximate (only the first
	// in-flight call times itself), which keeps the counter meaningful
	// without a per-goroutine side table.
	callDepth int32
}

func newRepoState(e *Engine) *repoState {
	return &repoState{e: e, r: e.lib.repo}
}

// Repo exposes the repository (stats for the harness and majicc). With
// a shared Library this is the library's process-wide repository.
func (e *Engine) Repo() *repo.Repository { return e.repo.r }

func (r *repoState) invalidate(name string) {
	r.r.Invalidate(name)
}

// precompile performs the speculative ahead-of-time compilation the
// repository does while "snooping the source code directories". In
// async mode the job runs on the worker pool — the paper's behind-the-
// scenes story — and publishes its entry when it lands; the single-
// flight key prevents duplicate speculative jobs for one source
// generation.
func (r *repoState) precompile(fn *ast.Function) {
	if r.e.lib.queue == nil {
		r.precompileSync(fn)
		return
	}
	name := fn.Name
	gen := r.r.Generation(name)
	key := fmt.Sprintf("spec\x00%s\x00%d", name, gen)
	r.e.lib.queue.Do(key, func() error {
		fn := r.e.LookupFunction(name)
		if fn == nil {
			return nil
		}
		sig, err := r.e.speculate(fn)
		if err != nil {
			return nil // speculation failure is not an error; JIT covers it
		}
		if r.r.Covered(name, sig) {
			return nil
		}
		code, err := r.e.compile(fn, sig, pipelineOpts{optimize: true})
		if err != nil {
			return nil
		}
		r.r.InsertAt(name, &repo.Entry{Sig: sig, Code: code, Quality: repo.QualityOpt, Speculative: true}, gen)
		return nil
	})
}

func (r *repoState) precompileSync(fn *ast.Function) {
	sig, err := r.e.speculate(fn)
	if err != nil {
		return
	}
	code, err := r.e.compile(fn, sig, pipelineOpts{optimize: true})
	if err != nil {
		return
	}
	r.r.Insert(fn.Name, &repo.Entry{Sig: sig, Code: code, Quality: repo.QualityOpt, Speculative: true})
}

func (r *repoState) invoke(fn *ast.Function, args []*mat.Value, nout int) ([]*mat.Value, error) {
	e := r.e
	if e.opts.Tiered && e.opts.Tier == TierJIT {
		return r.invokeTiered(fn, args, nout)
	}
	sig := types.SignatureOf(args)
	if entry := r.r.Lookup(fn.Name, sig); entry != nil {
		return r.runEntry(entry, fn, args, nout)
	}

	// Miss → compile. The signature is widened when the repository has
	// already compiled this function for the same intrinsic kinds:
	// without widening, recursive calls such as fibonacci(n-1) would
	// compile one version per distinct constant argument.
	csig := sig
	if r.r.SameKindsDifferentDetail(fn.Name, sig) {
		csig = widen(sig)
	}

	var po pipelineOpts
	switch e.opts.Tier {
	case TierMCC:
		// Generic batch compilation: every parameter typed ⊤.
		csig = topSignature(len(sig))
		po = pipelineOpts{generic: true}
	case TierFalcon:
		po = pipelineOpts{optimize: true}
	default: // TierJIT, and TierSpec's runtime fallback
		po = pipelineOpts{optimize: e.opts.JITBackendOpts}
	}

	if e.lib.queue != nil {
		return r.invokeAsync(fn, sig, csig, po, args, nout)
	}
	return r.invokeSync(fn, sig, csig, po, args, nout)
}

// invokeSync is the original inline-compile miss path: the default, so
// single-threaded behaviour (and the paper's Figure 4/6 reproductions)
// is unchanged when async mode is off.
func (r *repoState) invokeSync(fn *ast.Function, sig, csig types.Signature, po pipelineOpts, args []*mat.Value, nout int) ([]*mat.Value, error) {
	e := r.e
	code, err := e.compile(fn, csig, po)
	if err != nil {
		if _, unsupported := err.(*codegen.ErrUnsupported); unsupported {
			// Defer to runtime, like MaJIC does for ambiguous symbols:
			// record an interpret-only entry so the decision is cached.
			entry := &repo.Entry{Sig: topSignature(len(sig)), Quality: repo.QualityInterp}
			r.r.Insert(fn.Name, entry)
			return r.runEntry(entry, fn, args, nout)
		}
		return nil, err
	}
	quality := repo.QualityJIT
	if po.optimize {
		quality = repo.QualityOpt
	}
	entry := &repo.Entry{Sig: csig, Code: code, Quality: quality}
	r.r.Insert(fn.Name, entry)
	return r.runEntry(entry, fn, args, nout)
}

// invokeAsync enqueues the miss's compile job and applies the per-tier
// responsiveness policy:
//
//   - TierJIT (and the batch tiers mcc/falcon): block on the job. The
//     first caller pays the compile latency exactly once; concurrent
//     callers coalesce on the single-flight ticket, so N simultaneous
//     misses cost one compile.
//   - TierSpec: never block. The caller interprets this invocation (the
//     paper's Figure 6 responsiveness story: speculative mode trades
//     first-call speed for zero perceived compile pauses) and the
//     compiled entry serves later calls once the job lands.
func (r *repoState) invokeAsync(fn *ast.Function, sig, csig types.Signature, po pipelineOpts, args []*mat.Value, nout int) ([]*mat.Value, error) {
	e := r.e
	name := fn.Name
	// Order matters: read the generation before re-resolving the
	// function inside the job. If a redefinition lands in between, the
	// job compiles the new body but publishes at the old generation and
	// is dropped — conservative, never wrong.
	gen := r.r.Generation(name)
	key := fmt.Sprintf("jit\x00%s\x00%s\x00%d", name, csig.Key(), gen)
	arity := len(sig)
	ticket, _ := e.lib.queue.Do(key, func() error {
		return r.compileJob(name, csig, po, arity, gen)
	})

	if e.opts.Tier == TierSpec {
		// Non-blocking fallback: interpret now, hit compiled code later.
		// The fallback entry is transient — not inserted — so the
		// repository keeps exactly one (compiled) entry per key.
		return r.runEntry(&repo.Entry{Quality: repo.QualityInterp}, fn, args, nout)
	}

	if e.tracer != nil {
		// Queue-wait span: how long this caller blocked on the compile
		// ticket (zero when the job already landed).
		tw := time.Now()
		err := ticket.Wait()
		e.tracer.Span(telemetry.CatQueue, name, e.id, tw, time.Since(tw))
		if err != nil {
			return nil, err
		}
	} else if err := ticket.Wait(); err != nil {
		return nil, err
	}
	if entry := r.r.Lookup(name, sig); entry != nil {
		return r.runEntry(entry, fn, args, nout)
	}
	// The generation moved while the job was in flight (source
	// redefined) and the publish was dropped. Interpret this call with
	// the function the caller resolved; the next call recompiles fresh.
	return r.runEntry(&repo.Entry{Quality: repo.QualityInterp}, fn, args, nout)
}

// compileJob is the worker-side body of a miss job. It re-resolves the
// function by name (see the ordering note in invokeAsync), compiles,
// and publishes through InsertAt so stale generations are dropped.
func (r *repoState) compileJob(name string, csig types.Signature, po pipelineOpts, arity int, gen uint64) error {
	e := r.e
	fn := e.LookupFunction(name)
	if fn == nil {
		return nil // deleted while queued; nothing to publish
	}
	if r.r.Covered(name, csig) {
		// An equivalent entry landed between the miss and this job
		// (single-flight only spans a job's lifetime); don't duplicate.
		return nil
	}
	code, err := e.compile(fn, csig, po)
	if err != nil {
		if _, unsupported := err.(*codegen.ErrUnsupported); unsupported {
			r.r.InsertAt(name, &repo.Entry{Sig: topSignature(arity), Quality: repo.QualityInterp}, gen)
			return nil
		}
		return err
	}
	quality := repo.QualityJIT
	if po.optimize {
		quality = repo.QualityOpt
	}
	r.r.InsertAt(name, &repo.Entry{Sig: csig, Code: code, Quality: quality}, gen)
	return nil
}

func (r *repoState) runEntry(entry *repo.Entry, fn *ast.Function, args []*mat.Value, nout int) ([]*mat.Value, error) {
	depth := atomic.AddInt32(&r.callDepth, 1)
	var t0 time.Time
	if depth == 1 {
		t0 = time.Now()
	}
	var outs []*mat.Value
	var err error
	if entry.Quality == repo.QualityInterp {
		outs, err = r.e.in.CallFunction(fn, args, nout, r.e.globals)
	} else {
		outs, err = vm.Run(entry.Code, r.e, args)
	}
	if depth == 1 {
		d := time.Since(t0)
		atomic.AddInt64(&r.e.timing.Exec, d.Nanoseconds())
		r.e.tracer.Span(telemetry.CatExec, fn.Name, r.e.id, t0, d)
	}
	atomic.AddInt32(&r.callDepth, -1)
	if err != nil {
		return nil, err
	}
	if len(outs) > nout {
		outs = outs[:nout]
	}
	return outs, nil
}

// invokeTiered is the profile-guided execution path (Options.Tiered,
// TierJIT only). Calls start in the interpreter — a repository miss
// never compiles on the caller's goroutine, so first-eval latency stays
// interpreter-fast — while every call feeds the hotness profile for its
// (function, widened signature) bucket. A bucket that crosses the
// threshold enqueues a background recompile at QualityOpt with the
// profile-narrowed joined signature (maybePromote), and the published
// entry serves all later calls. While a call is still interpreting, the
// activation carries a tiered Frame: loop back-edges count toward the
// same bucket, and a hot loop transfers mid-run into compiled code via
// on-stack replacement (see osr.go).
func (r *repoState) invokeTiered(fn *ast.Function, args []*mat.Value, nout int) ([]*mat.Value, error) {
	e := r.e
	sig := types.SignatureOf(args)
	if entry := r.r.Lookup(fn.Name, sig); entry != nil && entry.Code != nil {
		return r.runEntry(entry, fn, args, nout)
	}
	// Interpret-only lookup hits (cached unsupported decisions) fall
	// through: the interpreter serves them, and the profile keeps
	// counting in case a narrower profiled signature compiles where the
	// widened one could not.
	gen := r.r.Generation(fn.Name)
	sp := e.lib.profiles.Func(fn.Name, gen).Sig(widen(sig).Key())
	sp.Observe(sig)
	r.maybePromote(fn.Name, sp, gen, len(sig))

	fr := &interp.Frame{
		Fn:        fn,
		Nout:      nout,
		Host:      e,
		Gen:       gen,
		Threshold: int64(e.tierThreshold()),
		BackEdges: sp.BackEdgeCounter(),
		Prof:      sp,
	}
	depth := atomic.AddInt32(&r.callDepth, 1)
	var t0 time.Time
	if depth == 1 {
		t0 = time.Now()
	}
	outs, err := e.in.CallFunctionTiered(fn, args, nout, e.globals, fr)
	if depth == 1 {
		d := time.Since(t0)
		atomic.AddInt64(&e.timing.Exec, d.Nanoseconds())
		e.tracer.Span(telemetry.CatExec, fn.Name, e.id, t0, d)
	}
	atomic.AddInt32(&r.callDepth, -1)
	if err != nil {
		return nil, err
	}
	if len(outs) > nout {
		outs = outs[:nout]
	}
	return outs, nil
}

// maybePromote enqueues the background tier-up once a signature bucket
// crosses the hotness threshold. The compile signature is the join of
// every exact signature observed — strictly narrower than the widened
// lookup key, so ranges and shapes the workload never exceeds stay
// available to the optimizer — except on the final promotion round,
// which compiles the fully widened form so the entry stops churning.
func (r *repoState) maybePromote(name string, sp *profile.SigProfile, gen uint64, arity int) {
	e := r.e
	if !sp.ShouldPromote(int64(e.tierThreshold())) {
		return
	}
	csig := sp.Observed()
	if len(csig) == 0 {
		csig = topSignature(arity)
	}
	if sp.PromotionRound() >= profile.MaxPromotions-1 {
		csig = widen(csig)
	}
	job := func() error {
		if e.LookupFunction(name) == nil || r.r.Generation(name) != gen {
			sp.PromotionDone()
			return nil
		}
		if r.r.Covered(name, csig) {
			sp.PromotionDone()
			return nil
		}
		t0 := time.Now()
		code, err := e.compile(e.LookupFunction(name), csig, pipelineOpts{optimize: true})
		e.tracer.Span(telemetry.CatTierUp, name, e.id, t0, time.Since(t0))
		if err != nil {
			if _, unsupported := err.(*codegen.ErrUnsupported); unsupported {
				// Cache the decision so plain lookups stop missing, and
				// stop promoting this bucket.
				r.r.InsertAt(name, &repo.Entry{Sig: topSignature(arity), Quality: repo.QualityInterp}, gen)
			}
			sp.PromotionFailed()
			return nil
		}
		if r.r.InsertAt(name, &repo.Entry{Sig: csig, Code: code, Quality: repo.QualityOpt}, gen) {
			e.lib.profiles.CountPromotion()
			e.lib.journal.Record(telemetry.Event{
				Kind:   telemetry.EventPromotion,
				Func:   name,
				Sig:    csig.Key(),
				Cause:  "hot-signature",
				Gen:    gen,
				Detail: fmt.Sprintf("entries=%d round=%d", sp.Entries(), sp.PromotionRound()+1),
			})
		}
		sp.PromotionDone()
		return nil
	}
	if e.lib.queue != nil {
		key := fmt.Sprintf("tier\x00%s\x00%s\x00%d", name, csig.Key(), gen)
		e.lib.queue.Do(key, job)
	} else {
		job()
	}
}

// widen relaxes ranges (and, where bounds differ across calls, shapes
// would already differ in kind handling) so one compiled version covers
// a family of invocations.
func widen(sig types.Signature) types.Signature {
	out := make(types.Signature, len(sig))
	for i, t := range sig {
		t.R = types.RangeTop
		if !t.IsScalar() {
			// Non-scalar parameters widen their shape bounds too: the
			// same matrix-kind signature should serve all sizes.
			t.MinShape = types.ShapeBot
			t.MaxShape = types.ShapeTop
		}
		out[i] = t
	}
	return out
}

func topSignature(n int) types.Signature {
	sig := make(types.Signature, n)
	for i := range sig {
		sig[i] = types.Top
	}
	return sig
}
