package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/persist"
)

// refPositions is how many consecutive calls of a program that draws
// from rand have a precomputed reference. Those programs have no
// MATLAB-level reseed, so call k of an engine sees RNG stream position
// k; engines that reach this many calls are rebuilt (in-process arms)
// or their session recreated (fleet).
const refPositions = 32

// program is one benchmark program with its inputs and references.
type program struct {
	name, fn, src string
	args          []*mat.Value
	usesRand      bool
	// refs[k] is the interpreter's result of call k on a fresh engine
	// (one entry for programs that do not draw from rand).
	refs []*mat.Value
	// snap is the encoded repository snapshot of a JIT engine after its
	// first call: the warm-start arm's input.
	snap []byte
}

func (p *program) ref(pos int) *mat.Value {
	if !p.usesRand {
		return p.refs[0]
	}
	return p.refs[pos]
}

// callSrc is the workspace statement that calls the program on
// workspace variables arg1..argN and prints the result with every digit
// (%.17g round-trips a double), so each call's reply can be checked.
func (p *program) callSrc() string {
	var b strings.Builder
	b.WriteString("y = " + p.fn)
	if len(p.args) > 0 {
		b.WriteString("(")
		for i := range p.args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "arg%d", i+1)
		}
		b.WriteString(")")
	}
	return b.String() + "; fprintf('%.17g\\n', y);"
}

// variantSrc returns the program source, or for variant 1 the same
// program with a dead assignment added to its entry function: a
// source-changing redefinition that computes the same result.
func (p *program) variantSrc(variant int) string {
	if variant == 0 {
		return p.src
	}
	head := strings.Index(p.src, "function")
	nl := strings.Index(p.src[head:], "\n")
	return p.src[:head+nl+1] + "  benchrev = 1;\n" + p.src[head+nl+1:]
}

func table1Programs(sz bench.Size) []*program {
	var out []*program
	for _, b := range bench.All() {
		out = append(out, &program{name: b.Name, fn: b.Fn, src: b.Source(sz), args: b.Args(sz)})
	}
	return out
}

// cgSparseN and cgSparseIters size the sparse cg solve: a pentadiagonal
// operator large enough that SpMV dominates, like the dense solvers'
// dgemv at n = 420.
const (
	cgSparseN     = 5000
	cgSparseIters = 100
)

var cgSparseSrc = fmt.Sprintf(`
function s = cgsp(A, b)
  n = size(A, 1);
  x = zeros(n, 1);
  r = b - A*x;
  d = diag(A);
  z = r ./ d;
  p = z;
  rz = dot(r, z);
  for iter = 1:%d
    q = A*p;
    alpha = rz / dot(p, q);
    x = x + alpha*p;
    r = r - alpha*q;
    z = r ./ d;
    rznew = dot(r, z);
    beta = rznew / rz;
    rz = rznew;
    p = z + beta*p;
  end
  s = sum(x) + norm(b - A*x);
end`, cgSparseIters)

// pentaOperator is the SPD operator [-1 -1 6 -1 -1] at offsets -2..2.
func pentaOperator(n int) *mat.Value {
	e := make([]float64, n)
	d6 := make([]float64, n)
	for i := range e {
		e[i] = -1
		d6[i] = 6
	}
	a, err := mat.SparseFromDiags(n, n, [][]float64{e, e, d6, e, e}, []int{-2, -1, 0, 1, 2})
	if err != nil {
		panic(err) // fixed, valid diagonals
	}
	return a
}

func solverPrograms() []*program {
	var out []*program
	for _, name := range []string{"cgopt", "qmr", "sor"} {
		b := bench.ByName(name)
		out = append(out, &program{name: b.Name, fn: b.Fn, src: b.Source(bench.Paper), args: b.Args(bench.Paper)})
	}
	rhs := mat.New(cgSparseN, 1)
	for i := range rhs.Re() {
		rhs.Re()[i] = math.Sin(float64(i+1)) + 1.5
	}
	out = append(out, &program{name: "cgsparse", fn: "cgsp", src: cgSparseSrc,
		args: []*mat.Value{pentaOperator(cgSparseN), rhs}})
	return out
}

// prepare computes the references and the warm-start snapshot. It is
// part of set-up.
func (p *program) prepare() error {
	for _, a := range p.args {
		a.MarkShared()
	}
	p.usesRand = strings.Contains(p.src, "rand")
	n := 1
	if p.usesRand {
		n = refPositions
	}
	ie := core.New(core.Options{Tier: core.TierInterp})
	defer ie.Close()
	if err := ie.Define(p.src); err != nil {
		return fmt.Errorf("%s: define: %w", p.name, err)
	}
	p.refs = p.refs[:0]
	for k := 0; k < n; k++ {
		outs, err := ie.Call(p.fn, p.args, 1)
		if err != nil {
			return fmt.Errorf("%s: reference call %d: %w", p.name, k, err)
		}
		p.refs = append(p.refs, outs[0])
	}
	je := core.New(core.Options{Tier: core.TierJIT})
	defer je.Close()
	if err := je.Define(p.src); err != nil {
		return fmt.Errorf("%s: define: %w", p.name, err)
	}
	if _, err := je.Call(p.fn, p.args, 1); err != nil {
		return fmt.Errorf("%s: snapshot call: %w", p.name, err)
	}
	p.snap = persist.Encode(je.Library().ExportSnapshot())
	return nil
}

// checker compares results with the interpreter's reference at the
// same RNG stream position. A failed op is an error or a mismatch
// beyond the repository's differential tolerance (1e-6 relative, as in
// the cross-tier benchmark test); a bitwise difference within tolerance
// is counted separately.
type checker struct {
	attempted, failed, bitwise int64
	firstErr                   string
}

func (c *checker) fail(what string) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = what
	}
}

// checkPrinted checks a result printed one element per line.
func (c *checker) checkPrinted(what, out string, want *mat.Value) {
	c.attempted++
	f := strings.Fields(out)
	re := make([]float64, len(f))
	for i, x := range f {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			c.fail(fmt.Sprintf("%s: unreadable output %q", what, out))
			return
		}
		re[i] = v
	}
	if len(re) != want.Numel() {
		c.fail(fmt.Sprintf("%s: printed %d values, want %d", what, len(re), want.Numel()))
		return
	}
	c.compare(what, want.Rows(), want.Cols(), re, nil, want)
}

func (c *checker) check(what string, outs []*mat.Value, err error, want *mat.Value) {
	c.attempted++
	if err != nil {
		c.fail(fmt.Sprintf("%s: %v", what, err))
		return
	}
	if len(outs) == 0 {
		c.fail(what + ": no result")
		return
	}
	c.compare(what, outs[0].Rows(), outs[0].Cols(), outs[0].Re(), outs[0].Im(), want)
}

// compare checks one result given as dimensions plus real and imaginary
// parts (the form both an engine value and a workspace GET carry).
func (c *checker) compare(what string, rows, cols int, re, im []float64, want *mat.Value) {
	if rows != want.Rows() || cols != want.Cols() {
		c.fail(fmt.Sprintf("%s: got %dx%d, want %dx%d", what, rows, cols, want.Rows(), want.Cols()))
		return
	}
	close, same := sameParts(re, want.Re())
	if im != nil || want.Im() != nil {
		ci, si := sameParts(padded(im, len(re)), padded(want.Im(), len(re)))
		close, same = close && ci, same && si
	}
	if !close {
		c.fail(fmt.Sprintf("%s: result differs from the interpreter beyond 1e-6", what))
		return
	}
	if !same {
		c.bitwise++
	}
}

func padded(x []float64, n int) []float64 {
	if x == nil {
		return make([]float64, n)
	}
	return x
}

func sameParts(a, b []float64) (close, same bool) {
	if len(a) != len(b) {
		return false, false
	}
	close, same = true, true
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x) != math.Float64bits(y) {
			same = false
		}
		if math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		if !(math.Abs(x-y) <= 1e-6*(1+math.Max(math.Abs(x), math.Abs(y)))) {
			close = false
		}
	}
	return close, same
}
