package bench_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parser"
)

// TestSourcesParse checks every benchmark at every preset is valid in
// the supported subset.
func TestSourcesParse(t *testing.T) {
	for _, b := range bench.All() {
		for _, sz := range []bench.Size{bench.Small, bench.Medium, bench.Paper} {
			if _, err := parser.Parse(b.Source(sz)); err != nil {
				t.Errorf("%s/%s: parse: %v", b.Name, sz, err)
			}
		}
	}
}

// TestTable1Inventory checks the benchmark list matches Table 1.
func TestTable1Inventory(t *testing.T) {
	if got := len(bench.All()); got != 16 {
		t.Fatalf("have %d benchmarks, Table 1 lists 16", got)
	}
	for _, name := range []string{
		"adapt", "cgopt", "crnich", "dirich", "finedif", "galrkn", "icn",
		"mei", "orbec", "orbrk", "qmr", "sor", "ackermann", "fractal",
		"mandel", "fibonacci",
	} {
		if bench.ByName(name) == nil {
			t.Errorf("missing benchmark %q", name)
		}
	}
}

func runBench(t *testing.T, b *bench.Benchmark, opts core.Options, sz bench.Size) *mat.Value {
	t.Helper()
	opts.Seed = 424242
	e := core.New(opts)
	if err := e.Define(b.Source(sz)); err != nil {
		t.Fatalf("%s: define: %v", b.Name, err)
	}
	e.Precompile()
	outs, err := e.Call(b.Fn, b.Args(sz), 1)
	if err != nil {
		t.Fatalf("%s [%s]: %v", b.Name, opts.Tier, err)
	}
	return outs[0]
}

// TestBenchmarksAgreeAcrossTiers is the benchmark-level differential
// test: every tier (and both platform profiles) must reproduce the
// interpreter's checksum at the small preset.
func TestBenchmarksAgreeAcrossTiers(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want := runBench(t, b, core.Options{Tier: core.TierInterp}, bench.Small)
			ws, err := want.Scalar()
			if err != nil {
				t.Fatalf("checksum is not scalar: %dx%d", want.Rows(), want.Cols())
			}
			if math.IsNaN(ws) || math.IsInf(ws, 0) {
				t.Fatalf("checksum is %g", ws)
			}
			for _, tier := range []core.Tier{core.TierMCC, core.TierFalcon, core.TierJIT, core.TierSpec} {
				for _, plat := range []core.Platform{core.PlatformSPARC, core.PlatformMIPS} {
					got := runBench(t, b, core.Options{Tier: tier, Platform: plat}, bench.Small)
					gs, err := got.Scalar()
					if err != nil {
						t.Fatalf("[%s/%s] non-scalar result", tier, plat)
					}
					if !close(ws, gs) {
						t.Errorf("[%s/%s] checksum %.15g, want %.15g", tier, plat, gs, ws)
					}
				}
			}
		})
	}
}

// TestBenchmarksUnderAblations runs the Figure 7 ablation switches over
// the full suite at the small preset.
func TestBenchmarksUnderAblations(t *testing.T) {
	ablations := []core.Options{
		{Tier: core.TierJIT, DisableRanges: true},
		{Tier: core.TierJIT, DisableMinShapes: true},
		{Tier: core.TierJIT, SpillAll: true},
		{Tier: core.TierJIT, DisableInlining: true},
		{Tier: core.TierJIT, FuseElemwise: true},
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want := runBench(t, b, core.Options{Tier: core.TierInterp}, bench.Small)
			ws, _ := want.Scalar()
			for _, abl := range ablations {
				got := runBench(t, b, abl, bench.Small)
				gs, _ := got.Scalar()
				if !close(ws, gs) {
					t.Errorf("%+v: checksum %.15g, want %.15g", abl, gs, ws)
				}
			}
		})
	}
}

func close(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-6*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestSameValuesBitExact pins SameValues to IEEE-754 bit equality:
// imaginary parts count, the sign of zero counts, and NaN equals NaN.
func TestSameValuesBitExact(t *testing.T) {
	one := func(v *mat.Value) []*mat.Value { return []*mat.Value{v} }
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		a, b *mat.Value
		want bool
	}{
		{"equal", mat.Scalar(1.5), mat.Scalar(1.5), true},
		{"nan matches nan", mat.Scalar(math.NaN()), mat.Scalar(math.NaN()), true},
		{"differ only in Im", mat.ComplexScalar(1 + 2i), mat.ComplexScalar(1 + 3i), false},
		{"differ only in sign of zero", mat.Scalar(0), mat.Scalar(negZero), false},
		{"differ only in sign of zero Im", mat.ComplexScalar(complex(1, 0)), mat.ComplexScalar(complex(1, negZero)), false},
		{"real vs complex", mat.Scalar(1), mat.ComplexScalar(1), false},
		{"shape", mat.FromColMajor(mat.Real, 1, 2, []float64{1, 2}, nil), mat.FromColMajor(mat.Real, 2, 1, []float64{1, 2}, nil), false},
	} {
		if got := bench.SameValues(one(tc.a), one(tc.b)); got != tc.want {
			t.Errorf("%s: SameValues = %v, want %v", tc.name, got, tc.want)
		}
	}
	if bench.SameValues(one(mat.Scalar(1)), nil) {
		t.Error("lists of different length compared equal")
	}
}
