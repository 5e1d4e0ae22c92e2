package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

// The fleet: an in-process gateway in front of two replicating daemons
// on loopback, driven by one closed-loop client (an interactive user
// waits for each reply) over 16 sessions, one Table 1 program each.
// One client keeps the fleet from saturating a two-core host: on a
// two-vCPU Xeon VM, a busy loop pinned to one vCPU cut throughput by 38%
// and doubled p99 with two clients, against 2% and +39% with one.
const (
	fleetNodes    = 2
	fleetClients  = 1
	fleetSessions = 16
)

// Request mix, as cumulative thresholds on one uniform draw: about 1 in
// 200 ops destroys and recreates its session, 1% redefine the program
// with changed source (invalidation, recompile, replication), 5% PUT an
// argument, 8% GET the result, and the rest evaluate the call.
const (
	pRecreate = 0.005
	pRedefine = pRecreate + 0.01
	pPut      = pRedefine + 0.05
	pGet      = pPut + 0.08
)

type fleetNode struct {
	id, addr string
	srv      *server.Server
	hs       *http.Server
	repl     *cluster.Replicator
}

type fleet struct {
	nodes    []*fleetNode
	byID     map[string]*fleetNode
	health   *cluster.Health
	gw       *cluster.Gateway
	ghs      *http.Server
	gwAddr   string
	sessions []*fsess
	perNode  map[string]int
}

// fsess is the client's view of one session. Only its owning client
// goroutine touches it.
type fsess struct {
	key     string
	p       *program
	id      string
	node    string
	variant int
	pos     int // RNG stream position of the session's next call
	shadow  string
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// startFleet boots the fleet and opens the sessions.
func startFleet(progs []*program, rng *rand.Rand) (*fleet, error) {
	f := &fleet{byID: make(map[string]*fleetNode), perNode: make(map[string]int)}
	var nodes []cluster.Node
	for i := 0; i < fleetNodes; i++ {
		id := fmt.Sprintf("node-%c", 'a'+i)
		srv := server.New(server.Options{Engine: core.Options{Tier: core.TierJIT}, NodeID: id})
		hs, addr, err := serve(srv.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		n := &fleetNode{id: id, addr: addr, srv: srv, hs: hs}
		f.nodes = append(f.nodes, n)
		f.byID[id] = n
		nodes = append(nodes, cluster.Node{ID: id, Addr: addr})
	}
	for i, n := range f.nodes {
		var peers []cluster.Node
		for j := range f.nodes {
			if j != i {
				peers = append(peers, nodes[j])
			}
		}
		n.repl = cluster.NewReplicator(cluster.ReplicatorOptions{NodeID: n.id, Lib: n.srv.Library(), Peers: peers})
		n.repl.Start()
	}
	ring, err := cluster.NewRing(0, nodes)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.health = cluster.NewHealth(nodes, time.Second, nil)
	f.health.Start()
	f.gw = cluster.NewGateway(cluster.GatewayOptions{Ring: ring, Health: f.health})
	f.ghs, f.gwAddr, err = serve(f.gw.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}

	c := newClient()
	defer c.close()
	for i := 0; i < fleetSessions; i++ {
		// Keys are seeded but drawn until the ring places them evenly,
		// and programs go to sessions in Table 1 order, so every seed
		// gives each client and each node the same share of the work.
		want := nodes[(i/fleetClients)%fleetNodes].ID
		key := fmt.Sprintf("user-%016x", rng.Uint64())
		for ring.Owner(key).ID != want {
			key = fmt.Sprintf("user-%016x", rng.Uint64())
		}
		s := &fsess{key: key, p: progs[i%len(progs)]}
		if err := c.reopen(f.gwAddr, s); err != nil {
			f.stop()
			return nil, err
		}
		f.perNode[s.node]++
		f.sessions = append(f.sessions, s)
	}
	return f, nil
}

func (f *fleet) stop() {
	for _, n := range f.nodes {
		if n.repl != nil {
			n.repl.Close()
		}
	}
	if f.health != nil {
		f.health.Stop()
	}
	if f.ghs != nil {
		f.ghs.Close()
	}
	for _, n := range f.nodes {
		n.hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.srv.Shutdown(ctx)
		cancel()
	}
}

// client is one closed-loop user connection.
type client struct {
	tr *http.Transport
	c  *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	return &client{tr: tr, c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out (when non-nil
// and the status is 2xx).
func (c *client) do(method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

type wsValue struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Kind string    `json:"kind"`
	Re   []float64 `json:"re,omitempty"`
	Im   []float64 `json:"im,omitempty"`
}

type evalReply struct {
	Output    string `json:"output"`
	ElapsedUS int64  `json:"elapsed_us"`
}

func (c *client) eval(base, id, src string) (evalReply, int, error) {
	var r evalReply
	st, err := c.do("POST", base+"/sessions/"+id+"/eval", map[string]string{"src": src}, &r)
	return r, st, err
}

// putArg binds arg<k+1> to the program's k-th argument (for niladic
// programs, the unused variable aux to the scalar 1).
func (c *client) putArg(base, id string, p *program, k int) (int, error) {
	v := wsValue{Name: "aux", Rows: 1, Cols: 1, Kind: "real", Re: []float64{1}}
	if len(p.args) > 0 {
		a := p.args[k]
		v = wsValue{Name: fmt.Sprintf("arg%d", k+1), Rows: a.Rows(), Cols: a.Cols(), Kind: a.Kind().String(), Re: a.Re(), Im: a.Im()}
	}
	return c.do("PUT", base+"/sessions/"+id+"/workspace/"+v.Name, v, nil)
}

// open creates a session at base (the gateway routes it by key; a
// daemon ignores the key), defines the program's given variant, binds
// the arguments and makes the first call (RNG position 0). node is the
// owning node as the gateway reports it.
func (c *client) open(base, key string, p *program, variant int) (id, node string, err error) {
	var cr struct {
		ID   string `json:"id"`
		Node string `json:"node"`
	}
	if _, err := c.do("POST", base+"/sessions", map[string]string{"key": key}, &cr); err != nil {
		return "", "", fmt.Errorf("create session for %s: %w", p.name, err)
	}
	if _, _, err := c.eval(base, cr.ID, p.variantSrc(variant)); err != nil {
		return "", "", fmt.Errorf("define %s: %w", p.name, err)
	}
	for k := range p.args {
		if _, err := c.putArg(base, cr.ID, p, k); err != nil {
			return "", "", fmt.Errorf("bind arg%d of %s: %w", k+1, p.name, err)
		}
	}
	if _, _, err := c.eval(base, cr.ID, p.callSrc()); err != nil {
		return "", "", fmt.Errorf("first call of %s: %w", p.name, err)
	}
	return cr.ID, cr.Node, nil
}

// reopen (re)creates the session through the gateway.
func (c *client) reopen(gw string, s *fsess) (err error) {
	s.id, s.node, err = c.open(gw, s.key, s.p, s.variant)
	s.pos = 1
	return err
}

// fleetStats is what one fleet phase measured.
type fleetStats struct {
	evals    evals // gateway call evals
	wall     time.Duration
	rejected int64

	// Traced only: the same call evals sent to shadow sessions made
	// directly on the owning node.
	directMS   samples
	elapsedUS  samples
	overheadUS samples
	lagMS      samples
	lagTimeout int64
}

func (a *fleetStats) merge(b *fleetStats) {
	a.evals.merge(&b.evals)
	a.wall += b.wall
	a.rejected += b.rejected
	a.directMS = append(a.directMS, b.directMS...)
	a.elapsedUS = append(a.elapsedUS, b.elapsedUS...)
	a.overheadUS = append(a.overheadUS, b.overheadUS...)
	a.lagMS = append(a.lagMS, b.lagMS...)
	a.lagTimeout += b.lagTimeout
}

// run drives the request mix from the closed-loop clients until the
// deadline. Client i owns sessions i, i+fleetClients, ..., so every
// session's ops are sequential and its RNG position is known.
func (f *fleet) run(seed int64, deadline time.Time, tr *tracer, ck *checker) (*fleetStats, error) {
	total := &fleetStats{}
	var wg sync.WaitGroup
	var lagWG sync.WaitGroup
	var lagBusy atomic.Bool
	stats := make([]*fleetStats, fleetClients)
	cks := make([]*checker, fleetClients)
	errs := make([]error, fleetClients)
	t0 := time.Now()
	for ci := 0; ci < fleetClients; ci++ {
		stats[ci], cks[ci] = &fleetStats{}, &checker{}
		var mine []*fsess
		for i := ci; i < len(f.sessions); i += fleetClients {
			mine = append(mine, f.sessions[i])
		}
		wg.Add(1)
		go func(ci int, mine []*fsess) {
			defer wg.Done()
			cl := &fleetClient{f: f, c: newClient(), rng: rand.New(rand.NewSource(seed*7919 + int64(ci))),
				st: stats[ci], ck: cks[ci], tr: tr, op: int64(ci+1) << 40, lagWG: &lagWG, lagBusy: &lagBusy}
			defer cl.c.close()
			errs[ci] = cl.loop(mine, deadline)
		}(ci, mine)
	}
	wg.Wait()
	total.wall = time.Since(t0)
	lagWG.Wait()
	for ci := range stats {
		total.merge(stats[ci])
		ck.attempted += cks[ci].attempted
		ck.failed += cks[ci].failed
		ck.bitwise += cks[ci].bitwise
		if ck.firstErr == "" {
			ck.firstErr = cks[ci].firstErr
		}
		if errs[ci] != nil {
			return nil, errs[ci]
		}
	}
	return total, nil
}

type fleetClient struct {
	f       *fleet
	c       *client
	rng     *rand.Rand
	st      *fleetStats
	ck      *checker
	tr      *tracer // nil when untraced
	op      int64   // op ID of the current request
	lagWG   *sync.WaitGroup
	lagBusy *atomic.Bool
	lagMu   sync.Mutex
}

func (cl *fleetClient) opFailed(what string, status int, err error) {
	cl.ck.attempted++
	if status == http.StatusServiceUnavailable {
		cl.st.rejected++
	}
	cl.ck.fail(fmt.Sprintf("%s: %v", what, err))
}

func (cl *fleetClient) loop(mine []*fsess, deadline time.Time) error {
	gw := cl.f.gwAddr
	if cl.tr != nil {
		for _, s := range mine {
			if s.shadow != "" {
				continue
			}
			// The session's shadow, made directly on its owning node.
			var err error
			if s.shadow, _, err = cl.c.open(cl.f.byID[s.node].addr, "", s.p, s.variant); err != nil {
				return err
			}
		}
	}
	for time.Now().Before(deadline) {
		s := mine[cl.rng.Intn(len(mine))]
		r := cl.rng.Float64()
		if s.p.usesRand && s.pos >= len(s.p.refs) {
			r = 0 // out of precomputed references: recreate
		}
		cl.op++
		switch {
		case r < pRecreate:
			sp := cl.tr.begin("fleet.recreate", 0, cl.op)
			cl.ck.attempted++
			if _, err := cl.c.do("DELETE", gw+"/sessions/"+s.id, nil, nil); err != nil {
				cl.ck.fail(fmt.Sprintf("destroy %s: %v", s.p.name, err))
			} else if err := cl.c.reopen(gw, s); err != nil {
				cl.ck.fail(err.Error())
			}
			sp.end()
		case r < pRedefine:
			s.variant = 1 - s.variant
			sp := cl.tr.begin("fleet.redefine", 0, cl.op)
			_, st, err := cl.c.eval(gw, s.id, s.p.variantSrc(s.variant))
			sp.end()
			if err != nil {
				cl.opFailed("redefine "+s.p.name, st, err)
				continue
			}
			cl.ck.attempted++
			if cl.tr != nil {
				cl.measureLag(s)
			}
		case r < pPut:
			k := 0
			if len(s.p.args) > 0 {
				k = cl.rng.Intn(len(s.p.args))
			}
			sp := cl.tr.begin("fleet.put", 0, cl.op)
			st, err := cl.c.putArg(gw, s.id, s.p, k)
			sp.end()
			if err != nil {
				cl.opFailed("put "+s.p.name, st, err)
				continue
			}
			cl.ck.attempted++
		case r < pGet:
			var v wsValue
			sp := cl.tr.begin("fleet.get", 0, cl.op)
			st, err := cl.c.do("GET", gw+"/sessions/"+s.id+"/workspace/y", nil, &v)
			sp.end()
			if err != nil {
				cl.opFailed("get y of "+s.p.name, st, err)
				continue
			}
			cl.ck.attempted++
			cl.ck.compare("fleet get "+s.p.name, v.Rows, v.Cols, v.Re, v.Im, s.p.ref(s.pos-1))
		default:
			sp := cl.tr.begin("fleet.call", 0, cl.op)
			rep, st, err := cl.c.eval(gw, s.id, s.p.callSrc())
			d := sp.end()
			if err != nil {
				cl.opFailed("call "+s.p.name, st, err)
				continue
			}
			cl.ck.checkPrinted("fleet call "+s.p.name, rep.Output, s.p.ref(s.pos))
			s.pos++
			cl.st.evals.add(s.p.name, ms(d))
			if cl.tr != nil {
				cl.shadowCall(s)
			}
		}
	}
	return nil
}

func (cl *fleetClient) shadowCall(s *fsess) {
	base := cl.f.byID[s.node].addr
	sp := cl.tr.begin("fleet.call.node", 0, cl.op)
	r, st, err := cl.c.eval(base, s.shadow, s.p.callSrc())
	d := sp.end()
	if err != nil {
		cl.opFailed("shadow call "+s.p.name, st, err)
		return
	}
	cl.st.directMS = append(cl.st.directMS, ms(d))
	cl.st.elapsedUS = append(cl.st.elapsedUS, float64(r.ElapsedUS))
	cl.st.overheadUS = append(cl.st.overheadUS, us(d)-float64(r.ElapsedUS))
}

type digest struct {
	Funcs map[string]struct {
		SrcHash uint64 `json:"src_hash"`
	} `json:"funcs"`
}

// measureLag times, in the background, how long after a redefinition's
// 200 the peer's /cluster/digest shows the new source hash. One
// measurement runs at a time; redefinitions during it are not timed.
func (cl *fleetClient) measureLag(s *fsess) {
	if !cl.lagBusy.CompareAndSwap(false, true) {
		return
	}
	t0 := time.Now()
	origin := cl.f.byID[s.node]
	var peer *fleetNode
	for _, n := range cl.f.nodes {
		if n != origin {
			peer = n
		}
	}
	fn := s.p.fn
	cl.lagWG.Add(1)
	go func() {
		defer cl.lagWG.Done()
		defer cl.lagBusy.Store(false)
		c := newClient()
		defer c.close()
		var want digest
		if _, err := c.do("GET", origin.addr+"/cluster/digest", nil, &want); err != nil {
			return
		}
		target := want.Funcs[fn].SrcHash
		for time.Since(t0) < 3*time.Second {
			var got digest
			if _, err := c.do("GET", peer.addr+"/cluster/digest", nil, &got); err == nil && got.Funcs[fn].SrcHash == target {
				cl.lagMu.Lock()
				cl.st.lagMS = append(cl.st.lagMS, ms(time.Since(t0)))
				cl.lagMu.Unlock()
				return
			}
			time.Sleep(time.Millisecond)
		}
		cl.lagMu.Lock()
		cl.st.lagTimeout++
		cl.lagMu.Unlock()
	}()
}

// nodeTotals sums the nodes' repository counters.
func (f *fleet) nodeTotals() (inserts, hits, lookups int) {
	for _, n := range f.nodes {
		m := n.srv.Metrics()
		inserts += m.Repo.Inserts
		hits += m.Repo.Hits
		lookups += m.Repo.Lookups
	}
	return
}
