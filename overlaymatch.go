// Package overlaymatch is a Go implementation of
//
//	Georgiadis & Papatriantafilou, "Overlays with preferences:
//	Approximation algorithms for matching with preference lists"
//	(IPDPS 2010; Chalmers TR 09-06).
//
// Peers in an overlay each rank their potential neighbors with a
// private suitability metric (distance, interests, transaction
// history, resources — anything) and want at most b_i connections. The
// paper turns this generalized stable roommates setting into an
// optimization problem — maximize total *satisfaction* (eq. 1) — and
// solves it with a fully distributed greedy algorithm, LID, that
// exchanges only PROP/REJ messages between immediate neighbors yet
// guarantees a ¼(1+1/bmax) fraction of the optimal satisfaction
// (Theorem 3) and a ½ fraction of the optimal many-to-many weighted
// matching (Theorem 2). It terminates on every preference system,
// including the cyclic ones that break stabilization in prior work.
//
// This package is the public facade: build a Network from an edge list
// plus either explicit preference lists or a metric function, then run
// the distributed algorithm (deterministic event simulation or real
// goroutines) or the centralized equivalent, and inspect the resulting
// connections and satisfaction. The full machinery (topology
// generators, exact optimum oracles, baseline strategies, churn
// repair, the experiment suite) lives under internal/ and is exercised
// by cmd/experiments.
package overlaymatch

import (
	"fmt"
	"time"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// Edge is an undirected potential connection between two peers,
// identified by their indices in [0, NumNodes).
type Edge struct {
	U, V int
}

// Metric scores how desirable peer j looks to peer i; higher is
// better. It is evaluated once per directed neighbor pair at build
// time and must be deterministic. Each peer's metric output stays
// private: the protocol only ever transmits the derived satisfaction
// increases (eq. 5), never the metric itself.
type Metric func(i, j int) float64

// Spec describes an overlay instance.
type Spec struct {
	// NumNodes is the number of peers; peers are 0..NumNodes-1.
	NumNodes int
	// Edges lists the potential connections (the overlay graph).
	Edges []Edge
	// Quota returns b_i, how many connections peer i wants. nil means
	// 1 for everyone. Values are clamped to [1, deg(i)] (0 for
	// isolated peers), as the paper assumes.
	Quota func(i int) int
	// Metric ranks each neighborhood (ties broken by peer ID).
	// Exactly one of Metric and Lists must be set.
	Metric Metric
	// Lists gives each peer's explicit preference list: Lists[i] must
	// be a permutation of i's neighbors, most preferred first.
	Lists [][]int
	// Workers fans the edge-weight table construction out over this
	// many goroutines. The result is bit-identical for every value
	// (internal/par's deterministic-parallelism contract); <= 1 builds
	// on the calling goroutine only, which is also the zero-value
	// default so existing callers spawn nothing new.
	Workers int
}

// Network is a built overlay instance, ready to run. It is immutable
// and safe for concurrent use.
type Network struct {
	sys *pref.System
	tbl *satisfaction.Table
}

// Build validates a Spec and constructs the Network, computing every
// peer's preference ranks and the symmetric eq.-9 edge weights.
func Build(spec Spec) (*Network, error) {
	if spec.NumNodes < 0 {
		return nil, fmt.Errorf("overlaymatch: negative NumNodes")
	}
	b := graph.NewBuilder(spec.NumNodes)
	for _, e := range spec.Edges {
		b.AddEdge(e.U, e.V)
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("overlaymatch: %w", err)
	}
	quota := spec.Quota
	if quota == nil {
		quota = func(int) int { return 1 }
	}
	var sys *pref.System
	switch {
	case spec.Metric != nil && spec.Lists != nil:
		return nil, fmt.Errorf("overlaymatch: set either Metric or Lists, not both")
	case spec.Metric != nil:
		sys, err = pref.Build(g, pref.MetricFunc(spec.Metric), quota)
	case spec.Lists != nil:
		lists := make([][]graph.NodeID, len(spec.Lists))
		for i, l := range spec.Lists {
			lists[i] = append([]graph.NodeID(nil), l...)
		}
		quotas := make([]int, g.NumNodes())
		for i := range quotas {
			quotas[i] = quota(i)
		}
		sys, err = pref.FromRanks(g, lists, quotas)
	default:
		return nil, fmt.Errorf("overlaymatch: one of Metric or Lists must be set")
	}
	if err != nil {
		return nil, fmt.Errorf("overlaymatch: %w", err)
	}
	workers := spec.Workers
	if workers < 1 {
		workers = 1
	}
	return &Network{sys: sys, tbl: satisfaction.NewTableParallel(sys, workers)}, nil
}

// MustBuild is Build but panics on error, for statically-correct specs.
func MustBuild(spec Spec) *Network {
	n, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return n
}

// NumNodes returns the number of peers.
func (n *Network) NumNodes() int { return n.sys.Graph().NumNodes() }

// NumEdges returns the number of potential connections.
func (n *Network) NumEdges() int { return n.sys.Graph().NumEdges() }

// Quota returns b_i after clamping.
func (n *Network) Quota(i int) int { return n.sys.Quota(i) }

// PreferenceList returns peer i's neighbors, most preferred first.
func (n *Network) PreferenceList(i int) []int {
	return append([]int(nil), n.sys.List(i)...)
}

// ApproximationBound returns the end-to-end guarantee of Theorem 3 for
// this instance: the distributed algorithm achieves at least this
// fraction of the optimal total satisfaction. For an edgeless network
// it returns 1.
func (n *Network) ApproximationBound() float64 {
	bmax := n.sys.MaxQuota()
	if bmax == 0 {
		return 1
	}
	return satisfaction.Theorem3Bound(bmax)
}

// Acyclic reports whether the preference system is acyclic in the
// sense of Gai et al. — the restriction prior stabilization results
// need and this algorithm does not.
func (n *Network) Acyclic() bool { return pref.IsAcyclic(n.sys) }

// RunOptions tunes a distributed run.
type RunOptions struct {
	// Seed drives the simulated message latencies (event runtime).
	Seed uint64
	// LatencyJitter > 0 adds heavy-tailed (exponential) latency jitter
	// of the given scale on top of the unit latency; 0 keeps unit
	// latency, whose final virtual time counts causal rounds.
	LatencyJitter float64
}

// RunDistributed executes LID on the deterministic event simulator and
// returns the resulting connections. The outcome is the same for every
// seed (Lemmas 3–6); the message/round statistics vary.
func (n *Network) RunDistributed(opts RunOptions) (*Result, error) {
	lat := simnet.UnitLatency
	if opts.LatencyJitter > 0 {
		lat = simnet.ExponentialLatency(opts.LatencyJitter)
	}
	res, err := lid.RunEvent(n.sys, n.tbl, simnet.Options{Seed: opts.Seed, Latency: lat})
	if err != nil {
		return nil, err
	}
	return n.newResult(res.Matching, &res), nil
}

// RunDistributedGoroutines executes LID with one goroutine per peer —
// real concurrency under the Go scheduler. timeout bounds the run
// (0 means 30s).
func (n *Network) RunDistributedGoroutines(timeout time.Duration) (*Result, error) {
	res, err := lid.Run(n.sys, n.tbl, transport.Memory(transport.ClusterConfig{Timeout: timeout}), lid.RunOptions{})
	if err != nil {
		return nil, err
	}
	return n.newResult(res.Matching, &res), nil
}

// RunCentralized executes the LIC scan (Algorithm 2); by Lemmas 3–6 it
// returns the same connections as the distributed runs, with no
// message statistics.
func (n *Network) RunCentralized() *Result {
	return n.newResult(matching.LIC(n.sys, n.tbl), nil)
}

func (n *Network) newResult(m *matching.Matching, lr *lid.Result) *Result {
	r := &Result{net: n, m: m}
	if lr != nil {
		r.PropMessages = lr.PropMessages
		r.RejMessages = lr.RejMessages
		r.Rounds = lr.Stats.FinalTime
		r.MessagesByNode = append([]int(nil), lr.Stats.SentByNode...)
	}
	return r
}

// Result is the outcome of one run: a feasible set of connections plus
// run statistics (distributed runs only).
type Result struct {
	net *Network
	m   *matching.Matching

	// PropMessages and RejMessages count protocol messages (0 for
	// centralized runs).
	PropMessages int
	RejMessages  int
	// Rounds is the virtual time of the last delivery; under unit
	// latency it equals the longest causal message chain.
	Rounds float64
	// MessagesByNode is the per-peer sent-message count (nil for
	// centralized runs).
	MessagesByNode []int
}

// Connections returns the peers i got matched with, ascending.
func (r *Result) Connections(i int) []int { return r.m.Connections(i) }

// NumConnections returns the total number of established connections.
func (r *Result) NumConnections() int { return r.m.Size() }

// Satisfaction returns S_i (eq. 1) of peer i, in [0, 1].
func (r *Result) Satisfaction(i int) float64 {
	return satisfaction.Value(r.net.sys, i, r.m.Connections(i))
}

// TotalSatisfaction returns Σ S_i, the paper's objective.
func (r *Result) TotalSatisfaction() float64 { return r.m.TotalSatisfaction(r.net.sys) }

// Weight returns the matching's total eq.-9 weight.
func (r *Result) Weight() float64 { return r.m.Weight(r.net.sys) }

// Matched reports whether peers i and j ended up connected.
func (r *Result) Matched(i, j int) bool { return r.m.Has(i, j) }

// Edges returns all established connections in canonical order.
func (r *Result) Edges() []Edge {
	out := make([]Edge, 0, r.m.Size())
	for _, e := range r.m.Edges() {
		out = append(out, Edge{U: e.U, V: e.V})
	}
	return out
}
