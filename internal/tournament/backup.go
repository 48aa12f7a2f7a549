package tournament

import (
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
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
	id       graph.NodeID
	quota    int
	list     satisfaction.WeightList
	proposed []bool
	received []bool
}

func newBPNode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID) *bpNode {
	list := tbl.WeightList(s, id)
	return &bpNode{
		id:       id,
		quota:    s.Quota(id),
		list:     list,
		proposed: make([]bool, len(list.Order)),
		received: make([]bool, len(list.Order)),
	}
}

// Init implements simnet.Handler: the whole algorithm.
func (n *bpNode) Init(ctx simnet.Context) {
	top := min(n.quota, len(n.list.Order))
	for pos := 0; pos < top; pos++ {
		n.proposed[pos] = true
		ctx.Send(n.list.Order[pos], bpMsg{})
	}
	ctx.Halt()
}

// HandleMessage implements simnet.Handler: bookkeeping only.
func (n *bpNode) HandleMessage(_ simnet.Context, from int, msg simnet.Message) {
	if _, ok := msg.(bpMsg); !ok {
		panic(fmt.Sprintf("tournament: bp node %d received non-BP message %T", n.id, msg))
	}
	pos, known := n.list.Pos(from)
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
	pos, ok := n.list.Pos(v)
	return ok && n.proposed[pos] && n.received[pos]
}

// Run implements Algorithm. One round has no replacement waves to
// resynchronize, so a stacked reliable transport simply re-delivers
// the proposals a crash window ate — the mutual-proposal rule is
// unaffected by reordering.
func (BackupPlacement) Run(s *pref.System, tbl *satisfaction.Table, opts Options) (stack.Result, error) {
	nodes := make([]*bpNode, s.Graph().NumNodes())
	handlers := make([]simnet.Handler, len(nodes))
	for id := range nodes {
		nodes[id] = newBPNode(s, tbl, id)
		handlers[id] = nodes[id]
	}
	matched := func(u, v graph.NodeID) bool { return nodes[u].linked(v) && nodes[v].linked(u) }
	return stack.Run(s, tbl, stack.Protocol{
		Handlers: handlers,
		Holds:    matched,
		Assemble: func() (*matching.Matching, error) {
			m, err := matching.Assemble(s, func(id graph.NodeID) []graph.NodeID {
				var partners []graph.NodeID
				for _, v := range nodes[id].list.Order {
					if matched(id, v) {
						partners = append(partners, v)
					}
				}
				return partners
			})
			if err != nil {
				return nil, fmt.Errorf("tournament: bp %w", err)
			}
			return m, nil
		},
	}, opts.runtime(), stack.Options{Stack: opts.Stack, ProbeInterval: opts.interval()})
}
