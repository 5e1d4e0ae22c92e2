// Package load is the load driver behind majic-bench's concurrent,
// server and cluster experiments. It has one configuration, one mapping
// from it to the engine and library options, one client for the majicd
// session protocol (a node and a majic-gate speak the same one), one
// closed-loop replay behind a start barrier, and one latency summary.
// The three targets are thin callers of that code:
//
//   - Concurrent: client goroutines calling one shared in-process engine;
//   - Server: clients × sessions replaying over HTTP against majicd
//     (shared vs isolated repositories, cold vs warm restarts, or an
//     external daemon);
//   - Cluster: the same replay through a gateway in front of an
//     in-process fleet, with and without repository replication.
//
// The daemon packages do not import this one, so majicd and majic-gate
// do not link the benchmark programs.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

// Config drives every target. Each field is set by the majic-bench flag
// named in its comment; zero values take the defaults listed there.
type Config struct {
	Size       bench.Size // -size
	Benchmarks []string   // -bench (default bench.ConcurrentSet)
	Clients    int        // -clients: concurrent client goroutines (default 8)
	Sessions   int        // -sessions: sessions per client (default 2)
	// Calls is -calls: the replay length per session (server, cluster)
	// or the steady-state calls per client (concurrent). Default 10.
	Calls    int
	Nodes    int    // -nodes: cluster fleet size (default 3)
	Addr     string // -addr: external daemon ("host:port" or a URL)
	RepoPath string // -repo-path: adds the server's cold/warm arms

	Async         bool // -async: background compile pool
	Workers       int  // -workers: compile pool size (0 = GOMAXPROCS)
	Fuse          bool // -fuse: elementwise fusion
	Threads       int  // -threads: dense-kernel threads (0 = default)
	Tiered        bool // -tiered: profile-guided tiered recompilation
	TierThreshold int  // -tier-threshold (0 = engine default)

	Out io.Writer // report table (default io.Discard)
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Sessions <= 0 {
		c.Sessions = 2
	}
	if c.Calls <= 0 {
		c.Calls = 10
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = bench.ConcurrentSet
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// options maps the configuration onto the engine and library options
// every target runs with.
func (c Config) options() (core.Options, core.LibraryOptions) {
	return core.Options{
			Tier:          core.TierJIT,
			Seed:          1,
			FuseElemwise:  c.Fuse,
			Threads:       c.Threads,
			Tiered:        c.Tiered,
			TierThreshold: c.TierThreshold,
		}, core.LibraryOptions{
			AsyncCompile:   c.Async,
			CompileWorkers: c.Workers,
			Tiered:         c.Tiered,
		}
}

// programs resolves the benchmark names, in order, rejecting unknown
// ones.
func (c Config) programs() ([]*bench.Benchmark, error) {
	out := make([]*bench.Benchmark, len(c.Benchmarks))
	for i, name := range c.Benchmarks {
		if out[i] = bench.ByName(name); out[i] == nil {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
	}
	return out, nil
}

// unique drops repeated programs, keeping first occurrences.
func unique(progs []*bench.Benchmark) []*bench.Benchmark {
	seen := map[*bench.Benchmark]bool{}
	var out []*bench.Benchmark
	for _, b := range progs {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// callFor is the replayed statement: "y = fn(arg1, ..., argk);".
func callFor(b *bench.Benchmark, size bench.Size) string {
	args := make([]string, len(b.Args(size)))
	for k := range args {
		args[k] = fmt.Sprintf("arg%d", k+1)
	}
	if len(args) == 0 {
		return "y = " + b.Fn + ";"
	}
	return "y = " + b.Fn + "(" + strings.Join(args, ", ") + ");"
}

// Summary is the client-observed latency of one replay.
type Summary struct {
	Requests  int     `json:"requests"` // timed operations (the sample count)
	Errors    int     `json:"errors"`   // operations that failed
	P50US     int64   `json:"p50_us"`
	P95US     int64   `json:"p95_us"`
	P99US     int64   `json:"p99_us"`
	MeanUS    int64   `json:"mean_us"`
	WallMS    int64   `json:"wall_ms"` // barrier release to the last operation
	EvalsPerS float64 `json:"evals_per_sec"`
}

// samples is a replay's raw outcome.
type samples struct {
	lat    []time.Duration // sorted ascending
	errors int
	wall   time.Duration
}

func (s samples) summary() Summary {
	n := len(s.lat)
	sum := Summary{Requests: n, Errors: s.errors, WallMS: s.wall.Milliseconds()}
	if n == 0 {
		return sum
	}
	if s.wall > 0 {
		sum.EvalsPerS = float64(n) / s.wall.Seconds()
	}
	var total time.Duration
	for _, d := range s.lat {
		total += d
	}
	sum.MeanUS = (total / time.Duration(n)).Microseconds()
	q := func(p float64) int64 { // nearest rank
		i := min(max(int(p*float64(n)+0.5)-1, 0), n-1)
		return s.lat[i].Microseconds()
	}
	sum.P50US, sum.P95US, sum.P99US = q(0.50), q(0.95), q(0.99)
	return sum
}

// replay runs one closed loop per client behind a start barrier. Each
// client first runs setup (untimed) to get its operation; once every
// client is set up, all are released together and each calls op(k)
// for k = 0..ops-1 back to back, timing every call. If any setup
// fails, no operation runs and the replay returns that error.
func replay(clients, ops int, setup func(ci int) (op func(k int) error, err error)) (samples, error) {
	lat := make([][]time.Duration, clients)
	errs := make([]int, clients)
	setupErr := make([]error, clients)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	var abort bool // written before release closes, read after
	ready.Add(clients)
	done.Add(clients)
	for ci := 0; ci < clients; ci++ {
		go func(ci int) {
			defer done.Done()
			op, err := setup(ci)
			setupErr[ci] = err
			ready.Done()
			<-release
			if abort {
				return
			}
			lat[ci] = make([]time.Duration, 0, ops)
			for k := 0; k < ops; k++ {
				t0 := time.Now()
				if op(k) != nil {
					errs[ci]++
				}
				lat[ci] = append(lat[ci], time.Since(t0))
			}
		}(ci)
	}
	ready.Wait()
	var err error
	for ci, e := range setupErr {
		if e != nil {
			err = fmt.Errorf("client %d: %w", ci, e)
			abort = true
			break
		}
	}
	t0 := time.Now()
	close(release)
	done.Wait()
	s := samples{wall: time.Since(t0)}
	if err != nil {
		return s, err
	}
	for ci := range lat {
		s.errors += errs[ci]
		s.lat = append(s.lat, lat[ci]...)
	}
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	return s, nil
}

// baseURL turns an address into a base URL: "host:port" gains an
// http:// scheme, an address that already names a scheme is kept.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// client speaks the majicd session protocol to a node or a gateway.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{base: baseURL(addr), hc: &http.Client{Timeout: 5 * time.Minute}}
}

func (cl *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, raw)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

func (cl *client) eval(id, src string) error {
	return cl.do("POST", "/sessions/"+id+"/eval", map[string]string{"src": src}, nil)
}

func (cl *client) create() (string, error) {
	var created struct {
		ID string `json:"id"`
	}
	err := cl.do("POST", "/sessions", nil, &created)
	return created.ID, err
}

// closeSession deletes a session once its replay is over. A failed
// delete is not reported: the measurement is already taken, and the
// daemon reaps idle sessions itself.
func (cl *client) closeSession(id string) { _ = cl.do("DELETE", "/sessions/"+id, nil, nil) }

// open creates a session, defines b's source in it when define is set,
// and binds b's arguments as arg1..argk through the workspace API.
func (cl *client) open(b *bench.Benchmark, size bench.Size, define bool) (string, error) {
	id, err := cl.create()
	if err != nil {
		return "", err
	}
	if define {
		if err := cl.eval(id, b.Source(size)); err != nil {
			return "", fmt.Errorf("define %s: %w", b.Name, err)
		}
	}
	for i, a := range b.Args(size) {
		name := fmt.Sprintf("arg%d", i+1)
		if err := cl.do("PUT", "/sessions/"+id+"/workspace/"+name, server.WorkspaceValueOf(name, a), nil); err != nil {
			return "", fmt.Errorf("bind %s for %s: %w", name, b.Name, err)
		}
	}
	return id, nil
}

// replaySessions is the server and cluster workload: every client opens
// Sessions sessions (session i replays progs[i % len(progs)]) and then
// round-robins Calls calls over them, so the interleaving exercises
// cross-session repository traffic. The sessions are deleted after.
func (c Config) replaySessions(cl *client, progs []*bench.Benchmark, define bool) (Summary, error) {
	ids := make([][]string, c.Clients)
	calls := make([][]string, c.Clients)
	s, err := replay(c.Clients, c.Calls*c.Sessions, func(ci int) (func(int) error, error) {
		for si := 0; si < c.Sessions; si++ {
			b := progs[(ci*c.Sessions+si)%len(progs)]
			id, err := cl.open(b, c.Size, define)
			if err != nil {
				return nil, err
			}
			ids[ci] = append(ids[ci], id)
			calls[ci] = append(calls[ci], callFor(b, c.Size))
		}
		return func(k int) error {
			si := k % c.Sessions
			return cl.eval(ids[ci][si], calls[ci][si])
		}, nil
	})
	for _, cids := range ids {
		for _, id := range cids {
			cl.closeSession(id)
		}
	}
	return s.summary(), err
}

// node is one in-process majicd on a loopback port.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	repl *cluster.Replicator
}

// startNode boots a daemon with the configured engine and library
// options on top of o.
func (c Config) startNode(o server.Options) (*node, error) {
	o.Engine, o.Library = c.options()
	o.MaxSessions = c.Clients*c.Sessions + 16
	srv := server.New(o)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing ran on it
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &node{srv: srv, hs: hs, url: "http://" + ln.Addr().String()}, nil
}

// stop closes the listener and drains the daemon, which flushes its
// snapshot when it persists. It reports a drain that timed out.
func (n *node) stop() error {
	if n.repl != nil {
		n.repl.Close()
	}
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return n.srv.Shutdown(ctx)
}
