package lid

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// Scheduler kinds understood by ParseSchedulerSpec.
const (
	SchedCanonical = "canonical"
	SchedGreedy    = "greedy"
)

// SchedulerSpec selects the admission scheduling of the proposal loop.
// The zero value is the canonical scheduler (every node initialized at
// time 0 in ID order — Algorithm 1 as written); the greedy scheduler
// releases nodes in descending order of their heaviest still-live
// frontier edge (see GreedyAdmitter). Scheduling never changes the
// outcome — LID converges to the same LIC either way — only the
// message and round counts.
type SchedulerSpec struct {
	// Kind is SchedCanonical or SchedGreedy ("" = canonical).
	Kind string
	// Batch, for the greedy scheduler, caps how many nodes one
	// admission round may release (0 = no cap).
	Batch int
}

// Greedy reports whether the spec selects greedy admission.
func (sp SchedulerSpec) Greedy() bool { return sp.Kind == SchedGreedy }

// String renders the spec in the grammar ParseSchedulerSpec accepts;
// Parse(String()) round-trips to the normalized spec.
func (sp SchedulerSpec) String() string {
	if sp.Kind == SchedGreedy {
		if sp.Batch > 0 {
			return fmt.Sprintf("greedy:batch=%d", sp.Batch)
		}
		return SchedGreedy
	}
	return SchedCanonical
}

// ParseSchedulerSpec parses the -scheduler grammar:
//
//	canonical          all nodes admitted at time 0 (the default)
//	greedy             heaviest-frontier admission, unbounded batches
//	greedy:batch=N     greedy with at most N nodes per admission round
//
// The empty string normalizes to canonical.
func ParseSchedulerSpec(s string) (SchedulerSpec, error) {
	base, opt, hasOpt := strings.Cut(s, ":")
	switch base {
	case "", SchedCanonical:
		if hasOpt {
			return SchedulerSpec{}, fmt.Errorf("lid: scheduler %q: canonical takes no options", s)
		}
		return SchedulerSpec{Kind: SchedCanonical}, nil
	case SchedGreedy:
		sp := SchedulerSpec{Kind: SchedGreedy}
		if !hasOpt {
			return sp, nil
		}
		k, v, ok := strings.Cut(opt, "=")
		if !ok || k != "batch" {
			return SchedulerSpec{}, fmt.Errorf("lid: scheduler %q: unknown option %q (want batch=N)", s, opt)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return SchedulerSpec{}, fmt.Errorf("lid: scheduler %q: batch must be a positive integer", s)
		}
		sp.Batch = n
		return sp, nil
	default:
		return SchedulerSpec{}, fmt.Errorf("lid: unknown scheduler %q (want %s or %s[:batch=N])", s, SchedCanonical, SchedGreedy)
	}
}

// frontierNone is the frontier key of a node with no live edges left —
// it sorts after every real packed order key.
const frontierNone = math.MaxUint64

// noEdge marks the frontier edge of an empty frontier.
const noEdge = graph.EdgeID(-1)

// frontierEntry is one heap element: a node keyed by its heaviest
// still-live frontier edge. Entries order by (key, edge, node)
// ascending, which under the packed order-key transform is exactly
// heaviest-first with the shared deterministic tie-break.
type frontierEntry struct {
	key  uint64
	edge graph.EdgeID
	node int32
}

type frontierHeap []frontierEntry

func (h frontierHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	if h[i].edge != h[j].edge {
		return h[i].edge < h[j].edge
	}
	return h[i].node < h[j].node
}

func (h *frontierHeap) push(e frontierEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *frontierHeap) pop() frontierEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
}

// GreedyStats counts scheduling events for reporting and tests.
type GreedyStats struct {
	Rounds         int // admission rounds that released at least one node
	Admitted       int // nodes released
	PairAdmits     int // mutually-dominant pairs released together
	EarlyStops     int // rounds cut short by the certificate
	StaleReinserts int // lazy heap refreshes (frontier moved lighter)
}

// GreedyAdmitter implements simnet.Admitter for a set of LID nodes:
// nodes are released for initialization in descending order of their
// heaviest still-live frontier edge (the packed satisfaction.OrderKeys
// order), in rounds. A node's frontier is its first weight-list entry
// still in {untouched, approached}; since pre-admission transitions
// are absorbing, the frontier only moves lighter, which makes lazy
// heap reinsertion sound.
//
// One admission round releases, scanning the heap heaviest-first:
//   - nodes whose frontier partner was admitted in an earlier round
//     (their proposal is already answerable — no heavier mass can
//     interpose),
//   - mutually-dominant pairs — two unadmitted nodes whose frontiers
//     are the same edge; that edge locks under any schedule, so both
//     endpoints are released together,
//   - nodes with no live frontier (fully resolved or isolated; their
//     Init just terminates them).
//
// The scan stops at the first node qualifying under none of the rules
// — the early-termination certificate: by the heap invariant every
// deferred node's frontier key is at least the stop key, and the stop
// node's own partner strictly prefers heavier still-live mass, so no
// deferred proposal could displace any tentative acceptance this
// round. The globally heaviest frontier edge between unadmitted nodes
// is always mutually dominant, so every round releases at least one
// node and the schedule terminates with all nodes admitted.
type GreedyAdmitter struct {
	nodes []*Node
	ord   []uint64         // EdgeID-aligned packed order keys
	inc   [][]graph.EdgeID // per-node incident EdgeIDs, weight-list aligned
	fcur  []int            // per-node frontier scan cursor (monotone)
	adm   []int32          // admission round per node (0 = unadmitted)
	round int32
	heap  frontierHeap
	cap   int // max nodes per round (0 = unlimited)

	started bool
	stats   GreedyStats

	// last early-termination certificate (test hook, see VerifyDeferred)
	stopped     bool
	stopKey     uint64
	stopEdge    graph.EdgeID
	stopNode    int
	stopPartner int
}

// NewGreedyAdmitter builds the heaviest-frontier admission schedule
// for the given nodes (as returned by NewNodes — node i must be the
// state machine of graph node i). The spec must be a greedy spec.
func NewGreedyAdmitter(s *pref.System, tbl *satisfaction.Table, nodes []*Node, spec SchedulerSpec) *GreedyAdmitter {
	if !spec.Greedy() {
		panic("lid: NewGreedyAdmitter with a non-greedy spec")
	}
	a := &GreedyAdmitter{
		nodes: nodes,
		ord:   tbl.OrderKeys(),
		inc:   make([][]graph.EdgeID, len(nodes)),
		fcur:  make([]int, len(nodes)),
		adm:   make([]int32, len(nodes)),
		cap:   spec.Batch,
	}
	for u := range nodes {
		a.inc[u] = tbl.SortedIncident(s, graph.NodeID(u))
	}
	return a
}

// frontier returns u's current frontier (packed key and weight-list
// position), advancing the monotone cursor past resolved entries.
// Position -1 with key frontierNone means no live edge remains.
func (a *GreedyAdmitter) frontier(u int) (uint64, int) {
	n := a.nodes[u]
	cur := a.fcur[u]
	for cur < len(n.list.Order) {
		switch n.state[cur] {
		case stUntouched, stApproached:
			a.fcur[u] = cur
			return a.ord[a.inc[u][cur]], cur
		}
		cur++
	}
	a.fcur[u] = cur
	return frontierNone, -1
}

// frontierEdge returns the EdgeID at a frontier position (noEdge for
// an empty frontier).
func (a *GreedyAdmitter) frontierEdge(u, pos int) graph.EdgeID {
	if pos < 0 {
		return noEdge
	}
	return a.inc[u][pos]
}

// NextBatch implements simnet.Admitter: release the next admission
// round. An empty return means every node has been admitted.
func (a *GreedyAdmitter) NextBatch() []int {
	if !a.started {
		a.started = true
		for u := range a.nodes {
			key, pos := a.frontier(u)
			a.heap.push(frontierEntry{key: key, edge: a.frontierEdge(u, pos), node: int32(u)})
		}
	}
	a.round++
	a.stopped = false
	var out []int
	admit := func(u int) {
		a.adm[u] = a.round
		out = append(out, u)
	}
	for len(a.heap) > 0 {
		if a.cap > 0 && len(out) >= a.cap {
			break
		}
		top := a.heap[0]
		u := int(top.node)
		if a.adm[u] != 0 {
			a.heap.pop() // admitted as a pair partner; entry is dead
			continue
		}
		key, pos := a.frontier(u)
		edge := a.frontierEdge(u, pos)
		if key != top.key || edge != top.edge {
			// Stale: the frontier moved lighter since the entry was
			// pushed. Refresh in place — keys never move heavier, so
			// the refreshed entry can only sink.
			a.heap.pop()
			a.heap.push(frontierEntry{key: key, edge: edge, node: top.node})
			a.stats.StaleReinserts++
			continue
		}
		if pos < 0 {
			// No live edges: Init only runs the termination path.
			a.heap.pop()
			admit(u)
			continue
		}
		v := a.nodes[u].list.Order[pos]
		switch vr := a.adm[v]; {
		case vr != 0 && vr < a.round:
			// Partner admitted in an earlier round: its PROP or REJ
			// toward u is already in flight or answered.
			a.heap.pop()
			admit(u)
		case vr == 0:
			_, vpos := a.frontier(v)
			if a.frontierEdge(v, vpos) == edge {
				// Mutually dominant: {u,v} is the heaviest live edge
				// at both endpoints and locks under any schedule.
				a.heap.pop()
				admit(u)
				admit(v)
				a.stats.PairAdmits++
				continue
			}
			fallthrough
		default:
			// The heaviest remaining frontier does not qualify:
			// everything below it can wait (see VerifyDeferred for the
			// certificate this records). Partner admitted *this* round
			// also lands here — u qualifies under rule 1 next round.
			a.stopped = true
			a.stopKey, a.stopEdge = top.key, top.edge
			a.stopNode, a.stopPartner = u, v
			a.stats.EarlyStops++
		}
		if a.stopped {
			break
		}
	}
	if len(out) == 0 {
		return nil
	}
	a.stats.Rounds++
	a.stats.Admitted += len(out)
	return out
}

// Stats returns the scheduling counters accumulated so far.
func (a *GreedyAdmitter) Stats() GreedyStats { return a.stats }

// VerifyDeferred checks the early-termination certificate recorded by
// the most recent NextBatch (nil when the round drained the heap):
//
//  1. soundness — every still-unadmitted node's current frontier key
//     is at least the stop key (nothing heavier was deferred), and
//  2. no displacement — the stop node's partner either was admitted in
//     the stopping round (so the stop node qualifies next round), or
//     strictly prefers a heavier still-live edge, i.e. (key, edge) of
//     the partner's frontier is lexicographically smaller than the
//     stop entry — so a proposal from the stop node (and a fortiori
//     from anything lighter) cannot displace a tentative acceptance.
//
// Tests drive it after every batch; a non-nil error is a scheduler bug.
func (a *GreedyAdmitter) VerifyDeferred() error {
	if !a.stopped {
		return nil
	}
	for u := range a.nodes {
		if a.adm[u] != 0 {
			continue
		}
		if key, _ := a.frontier(u); key < a.stopKey {
			return fmt.Errorf("lid: deferred node %d has frontier key %#x heavier than stop key %#x", u, key, a.stopKey)
		}
	}
	v := a.stopPartner
	if a.adm[v] == a.round {
		return nil // admitted in the stopping round; resolves next round
	}
	if a.adm[v] != 0 {
		return fmt.Errorf("lid: stop node %d deferred although partner %d was admitted in round %d < %d", a.stopNode, v, a.adm[v], a.round)
	}
	vkey, vpos := a.frontier(v)
	vedge := a.frontierEdge(v, vpos)
	if vkey > a.stopKey || (vkey == a.stopKey && vedge >= a.stopEdge) {
		return fmt.Errorf("lid: stop partner %d does not strictly prefer heavier mass (frontier %#x/%d vs stop %#x/%d)",
			v, vkey, vedge, a.stopKey, a.stopEdge)
	}
	return nil
}
