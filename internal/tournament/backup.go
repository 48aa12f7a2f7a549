package tournament

import (
	"fmt"
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// BackupPlacement is the one-round baseline in the style of Barenboim
// and Oren's backup-placement heuristics: every node proposes to the
// top min(quota, degree) neighbors of its weight list and terminates
// immediately; an edge is kept exactly when both endpoints proposed
// it. One communication round, one message per slot, no negotiation —
// the floor the multi-round contenders must beat.
//
// Every kept edge is mutually top-quota, hence locally heaviest, so
// the result is always a subset of LIC: its weight fraction is ≤ 1
// with equality only when mutual proposals alone realize the whole
// optimum. The blocking pairs it leaves behind are the price of
// refusing the replacement waves.
type BackupPlacement struct{}

// Name implements Algorithm.
func (BackupPlacement) Name() string { return "bp" }

// bpMsg is the single wire message: a proposal. Its arrival is its
// information, so the frame is the header alone (wire.go).
type bpMsg struct{}

// Kind implements simnet.Kinder.
func (bpMsg) Kind() string { return "PROP" }

// bpNode implements simnet.Handler: propose and stop, then record who
// proposed back (deliveries keep flowing after Halt).
type bpNode struct {
	id        graph.NodeID
	quota     int
	order     []graph.NodeID
	neighbors []graph.NodeID
	pos       []int32
	proposed  []bool
	received  []bool
}

func newBPNode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID) *bpNode {
	order := tbl.SortedNeighbors(s, id)
	return &bpNode{
		id:        id,
		quota:     s.Quota(id),
		order:     order,
		neighbors: s.Graph().Neighbors(id),
		pos:       tbl.WeightListPos(s, id),
		proposed:  make([]bool, len(order)),
		received:  make([]bool, len(order)),
	}
}

func (n *bpNode) orderPos(v graph.NodeID) (int32, bool) {
	i := sort.SearchInts(n.neighbors, v)
	if i >= len(n.neighbors) || n.neighbors[i] != v {
		return 0, false
	}
	return n.pos[i], true
}

// Init implements simnet.Handler: the whole algorithm.
func (n *bpNode) Init(ctx simnet.Context) {
	top := min(n.quota, len(n.order))
	for pos := 0; pos < top; pos++ {
		n.proposed[pos] = true
		ctx.Send(n.order[pos], bpMsg{})
	}
	ctx.Halt()
}

// HandleMessage implements simnet.Handler: bookkeeping only.
func (n *bpNode) HandleMessage(_ simnet.Context, from int, msg simnet.Message) {
	if _, ok := msg.(bpMsg); !ok {
		panic(fmt.Sprintf("tournament: bp node %d received non-BP message %T", n.id, msg))
	}
	pos, known := n.orderPos(from)
	if !known {
		panic(fmt.Sprintf("tournament: bp node %d received message from non-neighbor %d", n.id, from))
	}
	n.received[pos] = true
}

// linked reports whether this node proposed to v and heard v's
// proposal back — its half of the matched predicate. Mid-run the
// received bit may lag the sender's proposal, so the sampler sees the
// matched set grow as the round's messages land.
func (n *bpNode) linked(v graph.NodeID) bool {
	pos, ok := n.orderPos(v)
	return ok && n.proposed[pos] && n.received[pos]
}

// Run implements Algorithm.
func (BackupPlacement) Run(s *pref.System, tbl *satisfaction.Table, opts Options) (Outcome, error) {
	g := s.Graph()
	nodes := make([]*bpNode, g.NumNodes())
	handlers := make([]simnet.Handler, len(nodes))
	for id := range nodes {
		nodes[id] = newBPNode(s, tbl, id)
		handlers[id] = nodes[id]
	}
	matched := func(u, v graph.NodeID) bool { return nodes[u].linked(v) && nodes[v].linked(u) }
	var runner *simnet.Runner
	sampler := stabilitySampler(s, tbl, matched,
		func() (int64, int64) { return runner.SentTotals() })
	prober := obs.NewProber(opts.Registry, opts.interval(), g.NumEdges(), opts.OptWeight, sampler)
	runner = simnet.NewRunner(g.NumNodes(), simnet.Options{
		Seed:          opts.Seed,
		Policy:        opts.policy(),
		Probe:         prober.Probe,
		ProbeInterval: opts.interval(),
	})
	// One round has no replacement waves to resynchronize, so the
	// reliable wrap simply re-delivers proposals a crash window ate —
	// the mutual-proposal rule is unaffected by reordering.
	stats, err := runner.Run(opts.wrapReliable(handlers))
	if err != nil {
		return Outcome{Stats: stats, Prober: prober}, err
	}
	prober.PublishSummary(opts.Registry, nil)
	m := matching.NewDense(g)
	for _, e := range g.Edges() {
		if matched(e.U, e.V) {
			m.Add(e.U, e.V)
		}
	}
	return Outcome{Matching: m, Stats: stats, Prober: prober}, nil
}
