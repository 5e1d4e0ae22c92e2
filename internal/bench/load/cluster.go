package load

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/server"
)

// convergeTimeout bounds the replicated arm's wait for every node to
// hold an entry for every primed program.
const convergeTimeout = 30 * time.Second

// NodeArmStats is one node's repository traffic within a cluster arm.
type NodeArmStats struct {
	Node       string `json:"node"`
	Inserts    int    `json:"inserts"`    // local JIT compiles published
	Replicated int    `json:"replicated"` // entries applied from peers
	Hits       int    `json:"hits"`
	Lookups    int    `json:"lookups"`
	Evals      uint64 `json:"evals"`
}

// ClusterArm is one arm of the cluster experiment.
type ClusterArm struct {
	Mode string `json:"mode"` // "replicated" | "isolated-fleet"
	Summary
	ConvergeMS int64 `json:"converge_ms"` // replicated arm: priming → every node warm
	// Fleet-wide sums. FleetInserts is the headline: unique units
	// compiled ≈ FleetInserts in the replicated arm vs ≈ Nodes × unique
	// in the isolated fleet.
	FleetInserts    int                  `json:"fleet_inserts"`
	FleetReplicated int                  `json:"fleet_replicated"`
	FleetHits       int                  `json:"fleet_hits"`
	FleetLookups    int                  `json:"fleet_lookups"`
	PerNode         []NodeArmStats       `json:"per_node"`
	Gateway         cluster.GatewayStats `json:"gateway"`
}

// ClusterReport is the BENCH_cluster.json payload.
type ClusterReport struct {
	Nodes             int          `json:"nodes"`
	Vnodes            int          `json:"vnodes"`
	Clients           int          `json:"clients"`
	SessionsPerClient int          `json:"sessions_per_client"`
	CallsPerSession   int          `json:"calls_per_session"`
	Size              string       `json:"size"`
	Benchmarks        []string     `json:"benchmarks"`
	UniquePrograms    int          `json:"unique_programs"`
	Arms              []ClusterArm `json:"arms"`
}

// Cluster runs the majic-bench -exp=cluster experiment and prints its
// table: an in-process fleet of Nodes daemons behind a gateway replays
// the workload twice, once with repository-entry replication between
// the nodes and once with each node compiling for itself (the control).
// With replication a unique (function, signature) should be compiled
// about once fleet-wide instead of once per node.
func (c Config) Cluster() (*ClusterReport, error) {
	c = c.withDefaults()
	progs, err := c.programs()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.Out, "Cluster experiment: %d nodes, %d clients x %d sessions x %d calls, size %s\n",
		c.Nodes, c.Clients, c.Sessions, c.Calls, c.Size)
	rep := &ClusterReport{
		Nodes:             c.Nodes,
		Vnodes:            cluster.DefaultVnodes,
		Clients:           c.Clients,
		SessionsPerClient: c.Sessions,
		CallsPerSession:   c.Calls,
		Size:              c.Size.String(),
		Benchmarks:        c.Benchmarks,
		UniquePrograms:    len(unique(progs)),
	}
	for _, mode := range []string{"replicated", "isolated-fleet"} {
		arm, err := c.clusterArm(mode, progs)
		if err != nil {
			return nil, fmt.Errorf("%s arm: %w", mode, err)
		}
		rep.Arms = append(rep.Arms, arm)
	}
	c.printCluster(rep)
	return rep, nil
}

// clusterArm boots a fleet and gateway, primes every unique program
// once through the gateway, replays the workload, and collects per-node
// repository traffic.
func (c Config) clusterArm(mode string, progs []*bench.Benchmark) (ClusterArm, error) {
	arm := ClusterArm{Mode: mode}
	fleet := make([]*node, 0, c.Nodes)
	defer func() {
		for _, n := range fleet {
			_ = n.stop() // the arm is measured; a slow drain changes nothing in it
		}
	}()
	members := make([]cluster.Node, c.Nodes)
	for i := range members {
		id := fmt.Sprintf("node-%c", 'a'+i)
		n, err := c.startNode(server.Options{NodeID: id})
		if err != nil {
			return arm, err
		}
		fleet = append(fleet, n)
		members[i] = cluster.Node{ID: id, Addr: n.url}
	}
	replicated := mode == "replicated"
	if replicated {
		for i, n := range fleet {
			var peers []cluster.Node
			for j, m := range members {
				if j != i {
					peers = append(peers, m)
				}
			}
			n.repl = cluster.NewReplicator(cluster.ReplicatorOptions{
				NodeID:   members[i].ID,
				Lib:      n.srv.Library(),
				Peers:    peers,
				Interval: 500 * time.Millisecond,
			})
			n.repl.Start()
		}
	}
	ring, err := cluster.NewRing(cluster.DefaultVnodes, members)
	if err != nil {
		return arm, err
	}
	health := cluster.NewHealth(members, time.Second, nil)
	health.Start()
	defer health.Stop()
	gw := cluster.NewGateway(cluster.GatewayOptions{Ring: ring, Health: health})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return arm, err
	}
	ghs := &http.Server{Handler: gw.Handler()}
	go ghs.Serve(ln)
	defer ghs.Close()

	cl := newClient(ln.Addr().String())
	t0 := time.Now()
	for _, b := range unique(progs) {
		id, err := cl.open(b, c.Size, true)
		if err != nil {
			return arm, fmt.Errorf("prime %s: %w", b.Name, err)
		}
		if err := cl.eval(id, callFor(b, c.Size)); err != nil {
			return arm, fmt.Errorf("prime call %s: %w", b.Name, err)
		}
		cl.closeSession(id)
	}
	if replicated {
		for !converged(fleet, progs) {
			if time.Since(t0) > convergeTimeout {
				return arm, fmt.Errorf("replication did not converge within %s", convergeTimeout)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	arm.ConvergeMS = time.Since(t0).Milliseconds()

	if arm.Summary, err = c.replaySessions(cl, progs, true); err != nil {
		return arm, err
	}
	for i, n := range fleet {
		ms := n.srv.Metrics()
		arm.PerNode = append(arm.PerNode, NodeArmStats{
			Node:       members[i].ID,
			Inserts:    ms.Repo.Inserts,
			Replicated: ms.Repo.Replicated,
			Hits:       ms.Repo.Hits,
			Lookups:    ms.Repo.Lookups,
			Evals:      ms.Evals.Total,
		})
		arm.FleetInserts += ms.Repo.Inserts
		arm.FleetReplicated += ms.Repo.Replicated
		arm.FleetHits += ms.Repo.Hits
		arm.FleetLookups += ms.Repo.Lookups
	}
	arm.Gateway = gw.Stats()
	return arm, nil
}

// converged reports whether every node holds at least one live entry
// for every program's function.
func converged(fleet []*node, progs []*bench.Benchmark) bool {
	for _, n := range fleet {
		digest := n.srv.Library().ExportDigest()
		for _, b := range progs {
			if d, ok := digest[b.Fn]; !ok || len(d.Entries) == 0 {
				return false
			}
		}
	}
	return true
}

func (c Config) printCluster(rep *ClusterReport) {
	fmt.Fprintln(c.Out, "==========================================================================================")
	fmt.Fprintf(c.Out, "%-15s %9s %7s %10s %10s %9s %11s %9s\n",
		"arm", "requests", "errors", "p50", "p99", "inserts", "replicated", "hit-rate")
	fmt.Fprintln(c.Out, "------------------------------------------------------------------------------------------")
	for _, a := range rep.Arms {
		hitRate := 0.0
		if a.FleetLookups > 0 {
			hitRate = float64(a.FleetHits) / float64(a.FleetLookups)
		}
		fmt.Fprintf(c.Out, "%-15s %9d %7d %10s %10s %9d %11d %8.1f%%\n",
			a.Mode, a.Requests, a.Errors, us(a.P50US), us(a.P99US),
			a.FleetInserts, a.FleetReplicated, 100*hitRate)
		for _, n := range a.PerNode {
			fmt.Fprintf(c.Out, "  %-13s %9d evals %24d %11d\n", n.Node, n.Evals, n.Inserts, n.Replicated)
		}
	}
	fmt.Fprintf(c.Out, `
arm:        replicated = entries compiled on one node are pushed to all peers;
            isolated-fleet = each node compiles for itself (the control);
inserts:    JIT compiles summed across the fleet — with replication each of the
            %d unique programs is compiled roughly once fleet-wide, not %dx;
replicated: entries applied from peers (served without a local compile).
`, rep.UniquePrograms, rep.Nodes)
}
