package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/telemetry"
)

// The six in-process arms. Engines use zero-value core.Options apart
// from the arm's Tier/Tiered (and, in the traced run, a Tracer on the
// tiered first call), so a later change of defaults is what gets
// measured.
var (
	firstArms  = []string{"jit", "tiered", "warm"}
	steadyArms = []string{"jit", "tiered", "interp"}
)

func armOptions(arm string) core.Options {
	switch arm {
	case "tiered":
		return core.Options{Tier: core.TierJIT, Tiered: true}
	case "interp":
		return core.Options{Tier: core.TierInterp}
	}
	return core.Options{Tier: core.TierJIT}
}

// tieredWarmup calls a tiered steady engine makes in set-up: past the
// default hotness threshold (8), so the hot signature is promoted and,
// after Drain, served by the optimized entry.
const tieredWarmup = 12

// steadyEngine is one long-lived engine of a steady arm. pos is the RNG
// stream position of its next call.
type steadyEngine struct {
	arm string
	p   *program
	e   *core.Engine
	pos int
}

func newSteady(arm string, p *program, ck *checker) (*steadyEngine, error) {
	s := &steadyEngine{arm: arm, p: p, e: core.New(armOptions(arm))}
	if err := s.e.Define(p.src); err != nil {
		s.e.Close()
		return nil, fmt.Errorf("%s/%s: define: %w", arm, p.name, err)
	}
	warm := 1
	if arm == "tiered" {
		warm = tieredWarmup
	}
	for i := 0; i < warm; i++ {
		outs, err := s.e.Call(p.fn, p.args, 1)
		ck.check(fmt.Sprintf("%s/%s warm-up", arm, p.name), outs, err, p.ref(s.pos))
		s.pos++
	}
	s.e.Drain()
	return s, nil
}

// call makes one timed steady call and checks it.
func (s *steadyEngine) call(tr *tracer, op int64, ck *checker) (time.Duration, error) {
	if err := s.ensureRefs(ck); err != nil {
		return 0, err
	}
	sp := tr.begin("arm."+s.arm, 0, op)
	c := tr.begin("core.Engine.Call", sp.id, op)
	outs, err := s.e.Call(s.p.fn, s.p.args, 1)
	c.end()
	d := sp.end()
	ck.check(fmt.Sprintf("%s/%s call", s.arm, s.p.name), outs, err, s.p.ref(s.pos))
	s.pos++
	return d, nil
}

// ensureRefs rebuilds the engine (outside any timing) when its next
// call would pass the last precomputed reference.
func (s *steadyEngine) ensureRefs(ck *checker) error {
	if !s.p.usesRand || s.pos < len(s.p.refs) {
		return nil
	}
	n, err := newSteady(s.arm, s.p, ck)
	if err != nil {
		return err
	}
	s.e.Close()
	*s = *n
	return nil
}

// armsState is the in-process part of a workload after set-up.
type armsState struct {
	progs  []*program
	steady map[string][]*steadyEngine
}

func setupArms(progs []*program, ck *checker) (*armsState, error) {
	a := &armsState{progs: progs, steady: make(map[string][]*steadyEngine)}
	for _, p := range progs {
		if err := p.prepare(); err != nil {
			a.close()
			return nil, err
		}
	}
	for _, arm := range steadyArms {
		for _, p := range progs {
			s, err := newSteady(arm, p, ck)
			if err != nil {
				a.close()
				return nil, err
			}
			a.steady[arm] = append(a.steady[arm], s)
		}
	}
	return a, nil
}

func (a *armsState) close() {
	for _, ss := range a.steady {
		for _, s := range ss {
			s.e.Close()
		}
	}
}

// armResults collects timed calls: per metric, per program.
type armResults struct {
	perProg map[string]map[string]samples // metric -> program -> ms
	evals   evals                         // every timed call
	wall    time.Duration
}

func newArmResults() *armResults {
	return &armResults{perProg: make(map[string]map[string]samples)}
}

func (r *armResults) add(metric, prog string, d time.Duration) {
	m := r.perProg[metric]
	if m == nil {
		m = make(map[string]samples)
		r.perProg[metric] = m
	}
	m[prog] = append(m[prog], ms(d))
	r.evals.add(prog+"/"+metric, ms(d))
}

// geomeanOfMedians is the end-to-end value of an arm: the geometric
// mean over programs of each program's median.
func (r *armResults) geomeanOfMedians(metric string) float64 {
	var meds []float64
	for _, s := range r.perProg[metric] {
		meds = append(meds, s.median())
	}
	return geomean(meds)
}

// Per pass, each steady engine makes calls until they add up to
// steadyBudget (at least one, at most steadyMaxCalls), so a cheap
// program gets as many samples as its time share allows.
const (
	steadyBudget   = 4 * time.Millisecond
	steadyMaxCalls = 32
)

// passes runs seeded-order passes over every program until the
// deadline. Each pass times, per program, the three first-call arms on
// fresh engines and steadyBudget of calls of each steady engine. lay,
// when non-nil (the traced run), also collects the per-layer
// measurements that hang off these calls.
func (a *armsState) passes(rng *rand.Rand, deadline time.Time, tr *tracer, ck *checker, res *armResults, lay *layers) error {
	t0 := time.Now()
	defer func() { res.wall += time.Since(t0) }()
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, i := range rng.Perm(len(a.progs)) {
			p := a.progs[i]
			op := int64(pass*1000 + i + 1)
			for _, arm := range firstArms {
				d, err := a.firstCall(arm, p, tr, op, ck, lay)
				if err != nil {
					return err
				}
				res.add(arm+".first_call_ms", p.name, d)
			}
			for _, arm := range steadyArms {
				var spent time.Duration
				for k := 0; k == 0 || (k < steadyMaxCalls && spent < steadyBudget); k++ {
					d, err := a.steady[arm][i].call(tr, op, ck)
					if err != nil {
						return err
					}
					res.add(arm+".call_ms", p.name, d)
					spent += d
				}
			}
			if lay != nil {
				if err := lay.steadyProbe(a.steady["jit"][i], ck); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// firstCall times one first call of the given arm on a fresh engine:
// Define plus the first Call (jit, tiered), or persist.Decode plus
// Library.LoadSnapshot of the program's snapshot plus the first Call
// (warm).
func (a *armsState) firstCall(arm string, p *program, tr *tracer, op int64, ck *checker, lay *layers) (time.Duration, error) {
	what := fmt.Sprintf("%s first call/%s", arm, p.name)
	if arm == "warm" {
		lib := core.NewLibrary(core.LibraryOptions{})
		defer lib.Close()
		e := core.New(core.Options{Tier: core.TierJIT, Library: lib})
		sp := tr.begin("arm.warm.first", 0, op)
		c := tr.begin("persist.Decode", sp.id, op)
		snap, err := persist.Decode(p.snap)
		dDecode := c.end()
		if err != nil {
			sp.end()
			return 0, fmt.Errorf("%s: decode: %w", what, err)
		}
		c = tr.begin("core.Library.LoadSnapshot", sp.id, op)
		lib.LoadSnapshot(snap)
		dLoad := c.end()
		c = tr.begin("core.Engine.Call", sp.id, op)
		outs, err := e.Call(p.fn, p.args, 1)
		c.end()
		d := sp.end()
		ck.check(what, outs, err, p.ref(0))
		if lay != nil {
			lay.add("persist.decode_us", p.name, us(dDecode))
			lay.add("core.load_snapshot_us", p.name, us(dLoad))
		}
		return d, nil
	}

	opts := armOptions(arm)
	var ttr *telemetry.Tracer
	if lay != nil && arm == "tiered" {
		ttr = telemetry.NewTracer(0)
		opts.Tracer = ttr
	}
	e := core.New(opts)
	defer e.Close()
	sp := tr.begin("arm."+arm+".first", 0, op)
	c := tr.begin("core.Engine.Define", sp.id, op)
	err := e.Define(p.src)
	c.end()
	if err != nil {
		sp.end()
		return 0, fmt.Errorf("%s: define: %w", what, err)
	}
	c = tr.begin("core.Engine.Call", sp.id, op)
	outs, err := e.Call(p.fn, p.args, 1)
	c.end()
	d := sp.end()
	ck.check(what, outs, err, p.ref(0))
	if lay != nil {
		switch arm {
		case "jit":
			if err := lay.pipelineProbe(p, e, tr, op); err != nil {
				return 0, err
			}
		case "tiered":
			e.Drain()
			ps := e.ProfileStats()
			lay.count("profile.promotions", float64(ps.Promotions))
			lay.count("profile.osr_transfers", float64(ps.OSRTransfers))
			lay.count("profile.osr_deopts", float64(ps.OSRDeopts))
			lay.count("compilequeue.wait_us", us(ttr.CatTotals()[telemetry.CatQueue]))
			lay.count("tiered.first_calls", 1)
		}
	}
	return d, nil
}
