package load

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/parallel"
)

// TestBaseURL: a bare host:port gains http://, and an address that
// already names a scheme keeps it.
func TestBaseURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"127.0.0.1:8770", "http://127.0.0.1:8770"},
		{"localhost:80", "http://localhost:80"},
		{"http://127.0.0.1:8770", "http://127.0.0.1:8770"},
		{"https://host.example:8443", "https://host.example:8443"},
		{"https://host.example:8443/", "https://host.example:8443"},
	} {
		if got := baseURL(tc.addr); got != tc.want {
			t.Errorf("baseURL(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// TestUnknownBenchmark: every target rejects an unknown program name
// with an error before it boots anything.
func TestUnknownBenchmark(t *testing.T) {
	cfg := Config{Benchmarks: []string{"fibonacci", "nosuch"}}
	if _, err := cfg.Server(); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("Server: err = %v", err)
	}
	if _, err := cfg.Cluster(); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("Cluster: err = %v", err)
	}
	if _, err := cfg.Concurrent(); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("Concurrent: err = %v", err)
	}
}

// TestLoadGeneratorSmoke runs the server target at toy scale: both arms
// complete, the shared arm compiles no more than the isolated arm, and
// its hit rate is at least as high.
func TestLoadGeneratorSmoke(t *testing.T) {
	rep, err := Config{
		Clients:    2,
		Sessions:   2,
		Calls:      3,
		Benchmarks: []string{"fibonacci"},
	}.Server()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 2 {
		t.Fatalf("arms = %d", len(rep.Arms))
	}
	shared, isolated := rep.Arms[0], rep.Arms[1]
	if shared.Mode != "shared" || isolated.Mode != "isolated" {
		t.Fatalf("arm order: %+v", rep.Arms)
	}
	for _, a := range rep.Arms {
		if a.Errors != 0 || a.Requests != 2*2*3 {
			t.Fatalf("%s arm: %+v", a.Mode, a)
		}
	}
	if shared.RepoInsert > isolated.RepoInsert {
		t.Fatalf("shared compiled more than isolated: %d > %d", shared.RepoInsert, isolated.RepoInsert)
	}
	if shared.HitRate < isolated.HitRate {
		t.Fatalf("shared hit rate %f < isolated %f", shared.HitRate, isolated.HitRate)
	}
}

// TestLoadGeneratorWarmArm: with RepoPath set, the server target adds
// cold and warm arms, and the warm arm performs zero compiles.
func TestLoadGeneratorWarmArm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four load-generator arms")
	}
	rep, err := Config{
		Clients:    2,
		Sessions:   2,
		Calls:      3,
		Benchmarks: []string{"fibonacci"},
		RepoPath:   filepath.Join(t.TempDir(), "repo.bin"),
	}.Server()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 4 {
		t.Fatalf("arms = %d, want 4 (shared, isolated, cold, warm)", len(rep.Arms))
	}
	var cold, warm *ServerArm
	for i := range rep.Arms {
		switch rep.Arms[i].Mode {
		case "cold":
			cold = &rep.Arms[i]
		case "warm":
			warm = &rep.Arms[i]
		}
	}
	if cold == nil || warm == nil {
		t.Fatalf("cold/warm arms missing: %+v", rep.Arms)
	}
	if cold.RepoInsert == 0 {
		t.Fatalf("cold arm compiled nothing: %+v", cold)
	}
	if warm.RepoInsert != 0 || warm.RepoMisses != 0 {
		t.Fatalf("warm arm compiled/missed (want 0/0): %+v", warm)
	}
	if warm.RepoLoaded == 0 {
		t.Fatalf("warm arm loaded nothing: %+v", warm)
	}
}

// TestClusterTarget runs the cluster target at toy scale: both arms
// finish without errors, and replication never makes the fleet compile
// more than the isolated fleet does.
func TestClusterTarget(t *testing.T) {
	rep, err := Config{
		Nodes:      2,
		Clients:    2,
		Sessions:   1,
		Calls:      2,
		Benchmarks: []string{"fibonacci"},
	}.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 2 || rep.Arms[0].Mode != "replicated" || rep.Arms[1].Mode != "isolated-fleet" {
		t.Fatalf("arms: %+v", rep.Arms)
	}
	for _, a := range rep.Arms {
		if a.Errors != 0 || a.Requests != 2*1*2 || len(a.PerNode) != 2 {
			t.Fatalf("%s arm: %+v", a.Mode, a)
		}
	}
	if repl, iso := rep.Arms[0].FleetInserts, rep.Arms[1].FleetInserts; repl > iso {
		t.Fatalf("replicated fleet compiled more than the isolated fleet: %d > %d", repl, iso)
	}
}

// TestConcurrentClientsAsync drives 8 concurrent clients through one
// shared async engine for every ConcurrentSet workload (run with -race:
// this exercises the full compiled-code path concurrently).
func TestConcurrentClientsAsync(t *testing.T) {
	cfg := Config{Clients: 8, Async: true, Workers: 4, Calls: 3}
	rows, err := cfg.Concurrent()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bench.ConcurrentSet) {
		t.Fatalf("got %d rows, want %d", len(rows), len(bench.ConcurrentSet))
	}
	for _, r := range rows {
		if r.TotalCalls != 8*3 {
			t.Errorf("%s: %d steady calls, want 24", r.Bench, r.TotalCalls)
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: throughput %f", r.Bench, r.Throughput)
		}
		// Single-flight: concurrent cold misses on one signature must
		// not insert more than one entry per compiled signature. The
		// recursive/multi-function benchmarks compile several
		// signatures (callees, widening), but never one per client.
		if r.Inserts >= cfg.Clients {
			t.Errorf("%s: %d inserts for %d clients — single-flight failed", r.Bench, r.Inserts, cfg.Clients)
		}
	}
}

// TestConcurrentClientsSync: the sync engine must also survive
// concurrent clients (compiles inline, repository still shared).
func TestConcurrentClientsSync(t *testing.T) {
	rows, err := Config{Clients: 4, Calls: 2, Benchmarks: []string{"fibonacci", "cgopt"}}.Concurrent()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CompileJobs != 0 || r.Deduped != 0 {
			t.Errorf("%s: sync mode used the queue: %+v", r.Bench, r)
		}
	}
}

// TestConcurrentClientsThreaded layers kernel-level parallelism under
// client-level concurrency: every client call fans dense-kernel work
// out to the shared internal/parallel pool. Run with -race; the
// bit-exact cross-check of the clients' first results doubles as a
// thread-count determinism check.
func TestConcurrentClientsThreaded(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	rows, err := Config{
		Clients:    4,
		Async:      true,
		Workers:    2,
		Calls:      2,
		Benchmarks: []string{"cgopt", "sor"},
		Threads:    4,
		Fuse:       true,
	}.Concurrent()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

// TestConcurrentReport smoke-tests the table writer.
func TestConcurrentReport(t *testing.T) {
	var sb strings.Builder
	cfg := Config{Clients: 2, Async: true, Calls: 1, Benchmarks: []string{"fibonacci"}, Out: &sb}
	if _, err := cfg.Concurrent(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Concurrent clients", "fibonacci", "first(min)", "calls/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkConcurrentClients is the CI bench-smoke anchor for the
// concurrent path: one async engine, 8 clients, fibonacci.
func BenchmarkConcurrentClients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{Clients: 8, Async: true, Calls: 2, Benchmarks: []string{"fibonacci"}}
		if _, err := cfg.Concurrent(); err != nil {
			b.Fatal(err)
		}
	}
}
