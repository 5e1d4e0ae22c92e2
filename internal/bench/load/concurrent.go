package load

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// ConcurrentRow is one benchmark's result in the concurrent experiment.
type ConcurrentRow struct {
	Bench        string
	FirstCallMin time.Duration // best cold-start latency across clients
	FirstCallMax time.Duration // worst cold-start stall across clients
	Steady       time.Duration // wall time of the steady-state phase
	TotalCalls   int           // calls in the steady-state phase
	Throughput   float64       // steady-state calls/sec, all clients
	Inserts      int           // repository inserts (single-flight: 1 per signature)
	CompileJobs  int           // async compile jobs executed (0 in sync mode)
	Deduped      int           // async requests coalesced onto in-flight jobs
}

// Concurrent runs the majic-bench -exp=concurrent experiment and prints
// its table: for each benchmark, Clients goroutines call one shared
// engine. Every client's first call hits the empty repository at once
// (with Async, one single-flight compile serves them all; without, the
// first caller compiles inline), then every client makes Calls warm
// calls. It reports first-call latency and steady-state throughput.
func (c Config) Concurrent() ([]ConcurrentRow, error) {
	c = c.withDefaults()
	progs, err := c.programs()
	if err != nil {
		return nil, err
	}
	mode := "sync (inline compile)"
	if c.Async && c.Workers > 0 {
		mode = fmt.Sprintf("async (workers=%d)", c.Workers)
	} else if c.Async {
		mode = "async (workers=GOMAXPROCS)"
	}
	threads := c.Threads
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	fmt.Fprintf(c.Out, "Concurrent clients: %d goroutines x shared JIT repository, %s, size %s, kernel threads %d\n",
		c.Clients, mode, c.Size, threads)
	rows := make([]ConcurrentRow, 0, len(progs))
	for _, b := range progs {
		row, err := c.concurrentRow(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rows = append(rows, row)
	}
	c.printConcurrent(rows)
	return rows, nil
}

func (c Config) concurrentRow(b *bench.Benchmark) (ConcurrentRow, error) {
	row := ConcurrentRow{Bench: b.Name}
	opts, lopts := c.options()
	lib := core.NewLibrary(lopts)
	defer lib.Close()
	opts.Library = lib
	e := core.New(opts)
	if err := e.Define(b.Source(c.Size)); err != nil {
		return row, err
	}
	args := b.Args(c.Size)
	outs := make([][]*mat.Value, c.Clients)
	errs := make([]error, c.Clients)
	call := func(ci int) func(int) error {
		return func(int) error {
			var err error
			outs[ci], err = e.Call(b.Fn, args, 1)
			if err != nil {
				errs[ci] = err
			}
			return err
		}
	}

	// Cold start: every client fires the same signature at the empty
	// repository at once, the single-flight stress case.
	first, err := replay(c.Clients, 1, func(ci int) (func(int) error, error) { return call(ci), nil })
	if err != nil {
		return row, err
	}
	if err := errors.Join(errs...); err != nil {
		return row, fmt.Errorf("first call: %w", err)
	}
	row.FirstCallMin, row.FirstCallMax = first.lat[0], first.lat[len(first.lat)-1]
	for ci := range outs {
		// Clients running identical code on identical arguments must
		// agree bit for bit.
		if !bench.SameValues(outs[ci], outs[0]) {
			return row, fmt.Errorf("client %d result diverged from client 0", ci)
		}
	}
	e.Drain() // every background job published: steady state from here

	steady, err := replay(c.Clients, c.Calls, func(ci int) (func(int) error, error) { return call(ci), nil })
	if err != nil {
		return row, err
	}
	if err := errors.Join(errs...); err != nil {
		return row, fmt.Errorf("steady state: %w", err)
	}
	s := steady.summary()
	row.Steady, row.TotalCalls, row.Throughput = steady.wall, s.Requests, s.EvalsPerS
	row.Inserts = e.Repo().Stats().Inserts
	qs := e.QueueStats()
	row.CompileJobs, row.Deduped = qs.Submitted, qs.Deduped
	return row, nil
}

func (c Config) printConcurrent(rows []ConcurrentRow) {
	fmt.Fprintln(c.Out, "=========================================================================================")
	fmt.Fprintf(c.Out, "%-10s %14s %14s %14s %12s %8s %6s %8s\n",
		"benchmark", "first(min)", "first(max)", "steady", "calls/s", "inserts", "jobs", "deduped")
	fmt.Fprintln(c.Out, "-----------------------------------------------------------------------------------------")
	for _, r := range rows {
		fmt.Fprintf(c.Out, "%-10s %14s %14s %14s %12.0f %8d %6d %8d\n",
			r.Bench,
			r.FirstCallMin.Round(time.Microsecond),
			r.FirstCallMax.Round(time.Microsecond),
			r.Steady.Round(time.Microsecond),
			r.Throughput, r.Inserts, r.CompileJobs, r.Deduped)
	}
	fmt.Fprintln(c.Out, `
first(min/max): cold-start latency across clients hitting an empty repository at once
  (async+single-flight: one compile serves all clients; sync: first caller compiles inline);
steady:         wall time for clients x calls-per-client warm calls through the locator;
inserts:        repository inserts (single-flight keeps this at one per compiled signature);
jobs/deduped:   background compile jobs executed / concurrent requests coalesced.`)
}
