package load

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/server"
)

// ServerArm is one arm of the server experiment.
type ServerArm struct {
	Mode string `json:"mode"` // "shared" | "isolated" | "cold" | "warm" | "external"
	Summary
	RepoLookup int     `json:"repo_lookups"`
	RepoHits   int     `json:"repo_hits"`
	RepoMisses int     `json:"repo_misses"`
	RepoInsert int     `json:"repo_inserts"`
	RepoLoaded int     `json:"repo_loaded"`
	HitRate    float64 `json:"hit_rate"`
	QueueJobs  int     `json:"queue_jobs"`
	QueueDedup int     `json:"queue_deduped"`
	// Tiering counters, non-zero only under Tiered: background
	// promotions and mid-loop OSR transfers/deopts across all sessions.
	Promotions   int64 `json:"promotions"`
	OSRTransfers int64 `json:"osr_transfers"`
	OSRDeopts    int64 `json:"osr_deopts"`
}

// ServerReport is the BENCH_server.json payload.
type ServerReport struct {
	Clients           int         `json:"clients"`
	SessionsPerClient int         `json:"sessions_per_client"`
	CallsPerSession   int         `json:"calls_per_session"`
	Size              string      `json:"size"`
	Benchmarks        []string    `json:"benchmarks"`
	Async             bool        `json:"async"`
	Tiered            bool        `json:"tiered"`
	Arms              []ServerArm `json:"arms"`
}

// Server runs the majic-bench -exp=server experiment and prints its
// table. With Addr it replays once against that daemon; otherwise it
// boots in-process daemons for a shared-repository arm and an
// isolated-repository control, and with RepoPath adds a cold arm (a
// persisting daemon that pays and snapshots every compile) and a warm
// arm (a fresh daemon restored from that snapshot, which should
// compile nothing). Any file at RepoPath is removed first.
func (c Config) Server() (*ServerReport, error) {
	c = c.withDefaults()
	progs, err := c.programs()
	if err != nil {
		return nil, err
	}
	mode := "sync compile"
	if c.Async {
		mode = "async compile"
	}
	fmt.Fprintf(c.Out, "Server experiment: %d clients x %d sessions x %d calls, size %s, %s\n",
		c.Clients, c.Sessions, c.Calls, c.Size, mode)
	rep := &ServerReport{
		Clients:           c.Clients,
		SessionsPerClient: c.Sessions,
		CallsPerSession:   c.Calls,
		Size:              c.Size.String(),
		Benchmarks:        c.Benchmarks,
		Async:             c.Async,
		Tiered:            c.Tiered,
	}
	run := func(mode string, o server.Options) error {
		n, err := c.startNode(o)
		if err != nil {
			return err
		}
		arm, err := c.serverArm(mode, n.url, progs, mode != "isolated")
		if stopErr := n.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("drain: %w", stopErr)
		}
		if err != nil {
			return fmt.Errorf("%s arm: %w", mode, err)
		}
		rep.Arms = append(rep.Arms, arm)
		return nil
	}
	switch {
	case c.Addr != "":
		arm, err := c.serverArm("external", c.Addr, progs, true)
		if err != nil {
			return nil, err
		}
		rep.Arms = append(rep.Arms, arm)
	default:
		if err := run("shared", server.Options{}); err != nil {
			return nil, err
		}
		if err := run("isolated", server.Options{Isolated: true}); err != nil {
			return nil, err
		}
		if c.RepoPath != "" {
			if err := os.Remove(c.RepoPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
			for _, mode := range []string{"cold", "warm"} {
				if err := run(mode, server.Options{RepoPath: c.RepoPath}); err != nil {
					return nil, err
				}
			}
		}
	}
	c.printServer(rep)
	return rep, nil
}

// serverArm replays the workload against one daemon and reads its
// repository counters. On a shared repository one setup session defines
// every program once, as a snooped source directory would; isolated
// sessions each define their own copy, which is the point of the
// control arm.
func (c Config) serverArm(mode, addr string, progs []*bench.Benchmark, shared bool) (ServerArm, error) {
	arm := ServerArm{Mode: mode}
	cl := newClient(addr)
	if shared {
		id, err := cl.create()
		if err != nil {
			return arm, err
		}
		for _, b := range unique(progs) {
			if err := cl.eval(id, b.Source(c.Size)); err != nil {
				return arm, fmt.Errorf("define %s: %w", b.Name, err)
			}
		}
		if err := cl.do("DELETE", "/sessions/"+id, nil, nil); err != nil {
			return arm, err
		}
	}
	var err error
	if arm.Summary, err = c.replaySessions(cl, progs, !shared); err != nil {
		return arm, err
	}
	var m server.MetricsSnapshot
	if err := cl.do("GET", "/metrics", nil, &m); err != nil {
		return arm, err
	}
	arm.RepoLookup, arm.RepoHits, arm.RepoMisses = m.Repo.Lookups, m.Repo.Hits, m.Repo.Misses
	arm.RepoInsert, arm.RepoLoaded = m.Repo.Inserts, m.Repo.Loaded
	if m.Repo.Lookups > 0 {
		arm.HitRate = float64(m.Repo.Hits) / float64(m.Repo.Lookups)
	}
	arm.QueueJobs, arm.QueueDedup = m.Queue.Submitted, m.Queue.Deduped
	arm.Promotions, arm.OSRTransfers, arm.OSRDeopts = m.Profile.Promotions, m.Profile.OSRTransfers, m.Profile.OSRDeopts
	return arm, nil
}

func (c Config) printServer(rep *ServerReport) {
	fmt.Fprintln(c.Out, "=========================================================================================================")
	fmt.Fprintf(c.Out, "%-9s %9s %7s %10s %10s %10s %10s %9s %8s %8s %8s\n",
		"arm", "requests", "errors", "p50", "p95", "p99", "evals/s", "hit-rate", "hits", "inserts", "loaded")
	fmt.Fprintln(c.Out, "---------------------------------------------------------------------------------------------------------")
	for _, a := range rep.Arms {
		fmt.Fprintf(c.Out, "%-9s %9d %7d %10s %10s %10s %10.0f %8.1f%% %8d %8d %8d\n",
			a.Mode, a.Requests, a.Errors, us(a.P50US), us(a.P95US), us(a.P99US),
			a.EvalsPerS, 100*a.HitRate, a.RepoHits, a.RepoInsert, a.RepoLoaded)
	}
	fmt.Fprintln(c.Out, `
arm:      shared = one process-wide code repository across all sessions;
          isolated = a private repository per session (the control);
          cold/warm = a persisting daemon paying every compile, then a
          restarted daemon replaying from its snapshot (-repo-path);
p50..p99: client-observed eval latency quantiles over all replay requests;
hit-rate: repository hits / lookups — shared amortizes one session's JIT
          compile across every session replaying the same program;
inserts:  JIT compiles published this process lifetime (warm arm: 0);
loaded:   entries restored from the warm-start snapshot.`)
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
