package main

import (
	"math"
	"sort"
	"time"
)

// samples is one series of measurements (milliseconds, microseconds or
// counts; the caller knows which).
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile with linear interpolation between
// closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return quantile(s.sorted(), 0.5) }

// tailQ is the highest of p90, p99 and p999 that still has at least ten
// samples beyond it, or 0.5 when even p90 has fewer.
func tailQ(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

// summary is the distribution record every reported series carries.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailQ  float64 `json:"tail_q"`
	Tail   float64 `json:"tail"`
}

func (s samples) summary() summary {
	c := s.sorted()
	if len(c) == 0 {
		return summary{}
	}
	q := tailQ(len(c))
	return summary{
		N:      len(c),
		Median: quantile(c, 0.5),
		Q1:     quantile(c, 0.25),
		Q3:     quantile(c, 0.75),
		TailQ:  q,
		Tail:   quantile(c, q),
	}
}

// evals is the latency record of a workload's user-visible ops: pooled
// for the tail, and per kind of op (a program, or a program under one
// arm) for the typical op.
type evals struct {
	all    samples
	byKind map[string]samples
}

func (e *evals) add(kind string, msv float64) {
	if e.byKind == nil {
		e.byKind = make(map[string]samples)
	}
	e.all = append(e.all, msv)
	e.byKind[kind] = append(e.byKind[kind], msv)
}

func (e *evals) merge(o *evals) {
	for kind, s := range o.byKind {
		for _, v := range s {
			e.add(kind, v)
		}
	}
}

// p50 is the geometric mean over kinds of op of each kind's median. A
// pooled median sits in the gap between kinds of different cost (a
// 30 ms sor call beside a 13 ms qmr call, an interpreted call beside a
// compiled one) and jumps with whichever neighbour moves.
func (e *evals) p50() float64 {
	var meds []float64
	for _, s := range e.byKind {
		meds = append(meds, s.median())
	}
	return geomean(meds)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
