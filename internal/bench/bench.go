// Package bench defines the 16 MATLAB benchmarks of the paper's
// Table 1, with size presets: "paper" reproduces the published problem
// sizes, "medium" scales them to keep full harness runs in seconds, and
// "small" is for correctness tests. Each benchmark program is written
// from scratch in the supported MATLAB subset, following the cited
// origins (Mathews' and Garcia's numerical-methods texts, the Templates
// book, and the authors' own generators).
package bench

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// ConcurrentSet lists the Table 1 benchmarks the load driver replays by
// default: deterministic, argument-taking programs with no globals and
// no output, so concurrent invocations are independent.
var ConcurrentSet = []string{"fibonacci", "adapt", "cgopt", "sor", "qmr"}

// SameValues reports bit-for-bit equality of two result lists: equal
// shapes and kinds, and equal IEEE-754 bits in every real and imaginary
// element, so NaN matches itself and -0 does not match +0. Identical
// code on identical deterministic arguments must agree this exactly.
func SameValues(a, b []*mat.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Rows() != y.Rows() || x.Cols() != y.Cols() || x.Kind() != y.Kind() ||
			!sameBits(x.Re(), y.Re()) || !sameBits(x.Im(), y.Im()) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// Size selects a problem-size preset.
type Size int

const (
	Small Size = iota
	Medium
	Paper
)

// ParseSize converts a preset name.
func ParseSize(s string) (Size, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("unknown size preset %q (small|medium|paper)", s)
}

func (s Size) String() string {
	return [...]string{"small", "medium", "paper"}[s]
}

// Category groups benchmarks the way §3.1 does.
type Category int

const (
	CatScalar  Category = iota // Fortran-like scalar codes
	CatBuiltin                 // dominated by built-in library functions
	CatArray                   // small fixed-size vector/matrix codes
	CatRecursive
)

func (c Category) String() string {
	return [...]string{"scalar", "builtin", "array", "recursive"}[c]
}

// Benchmark is one Table 1 entry.
type Benchmark struct {
	Name     string
	Origin   string // source citation from Table 1
	Desc     string
	Category Category

	// Paper metadata (Table 1 columns).
	PaperSize    string
	PaperLines   int
	PaperRuntime float64 // seconds, MATLAB 6 on the 400MHz UltraSPARC

	// Fn is the entry function name; Source returns the program text
	// for a preset; Args returns the (deterministic) argument values.
	Fn     string
	Source func(sz Size) string
	Args   func(sz Size) []*mat.Value
}

// noArgs is the arg builder for niladic benchmarks.
func noArgs(Size) []*mat.Value { return nil }

// pick returns the preset-indexed value.
func pick[T any](sz Size, small, medium, paper T) T {
	switch sz {
	case Small:
		return small
	case Medium:
		return medium
	default:
		return paper
	}
}

// All returns the benchmark list in the paper's Table 1 order.
func All() []*Benchmark { return allBenchmarks }

// ByName returns a benchmark or nil.
func ByName(name string) *Benchmark {
	for _, b := range allBenchmarks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// --- deterministic matrix builders for parameterized benchmarks ---------------

// spdMatrix builds a symmetric positive-definite, diagonally dominant
// n x n matrix (the usual test system for the iterative solvers).
func spdMatrix(n int) *mat.Value {
	a := mat.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := 1.0 / float64(1+absInt(i-j))
			if i == j {
				v += float64(n) / 4
			}
			a.SetAt(i, j, v)
		}
	}
	return a
}

// rhsVector builds a deterministic right-hand side.
func rhsVector(n int) *mat.Value {
	b := mat.New(n, 1)
	for i := 0; i < n; i++ {
		b.Re()[i] = math.Sin(float64(i+1)) + 1.5
	}
	return b
}

// seedLandscape builds mei's n x m seed height field.
func seedLandscape(n, m int) *mat.Value {
	h := mat.New(n, m)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			h.SetAt(i, j, math.Sin(float64(i+1)*0.7)+math.Cos(float64(j+1)*1.3))
		}
	}
	return h
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
