package robust

import (
	"fmt"
	"slices"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// AdversaryKind selects a behavior for Scenario.
type AdversaryKind int

const (
	// AdvCrash is silent from the start.
	AdvCrash AdversaryKind = iota
	// AdvCrashAfter participates correctly for a few deliveries, then
	// fails silently.
	AdvCrashAfter
	// AdvSpammer floods PROP+REJ pairs.
	AdvSpammer
)

func (k AdversaryKind) String() string {
	switch k {
	case AdvCrash:
		return "crash"
	case AdvCrashAfter:
		return "crash-after"
	case AdvSpammer:
		return "spammer"
	}
	return fmt.Sprintf("AdversaryKind(%d)", int(k))
}

// Scenario describes one adversarial run.
type Scenario struct {
	System      *pref.System
	Adversaries map[graph.NodeID]AdversaryKind
	Timeout     float64 // proposal timeout for honest nodes
	// AdaptivePhi, when positive, gives every honest node a per-node
	// phi-accrual estimator over proposal response times
	// (TolerantNode.SetAdaptiveTimeout); Timeout stays the hard ceiling.
	AdaptivePhi float64
	CrashAfterK int // K for AdvCrashAfter (default 5)
}

// Outcome reports the result of a Scenario run.
type Outcome struct {
	// Result is the run recipe's result; its Matching contains only
	// honest–honest connections.
	stack.Result
	// DeadLocks counts honest connections whose peer was adversarial
	// (e.g. locked right before a crash) — wasted quota slots.
	DeadLocks int
	// HonestSatisfaction is Σ Si over honest nodes, counting only
	// honest–honest connections.
	HonestSatisfaction float64
	// BaselineSatisfaction is the total satisfaction LIC achieves on
	// the honest-induced subgraph — the adversary-free yardstick.
	BaselineSatisfaction float64
	// Revocations, DissolvedLocks and Violations aggregate the
	// tolerant nodes' counters.
	Revocations    int
	DissolvedLocks int
	Violations     int
	// AdaptiveArms counts proposal timers armed from the response-time
	// estimator instead of the static timeout (zero unless AdaptivePhi
	// is set).
	AdaptiveArms int
}

// Run executes the scenario through the run recipe (stack.Run) on the
// Transport rt builds, with the options' layers and hooks. The sink
// also receives the robust_* counters of a completed run. The
// stability sampler reads the honest nodes' locks.
func (sc Scenario) Run(rt simnet.Runtime, o stack.Options) (Outcome, error) {
	s := sc.System
	g := s.Graph()
	tbl := satisfaction.NewTable(s)
	k := sc.CrashAfterK
	if k == 0 {
		k = 5
	}

	handlers := make([]simnet.Handler, g.NumNodes())
	// honest is indexed by node, nil at an adversary; the outcome's
	// sums walk it in node order, so equal runs give equal floats.
	honest := make([]*TolerantNode, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		kind, isAdv := sc.Adversaries[id]
		if !isAdv {
			n := NewTolerantNode(s, tbl, id, sc.Timeout)
			if sc.AdaptivePhi > 0 {
				n.SetAdaptiveTimeout(detector.NewEstimator(detector.Window, detector.Floor), sc.AdaptivePhi)
			}
			honest[id] = n
			handlers[id] = n
			continue
		}
		switch kind {
		case AdvCrash:
			handlers[id] = Crash{}
		case AdvCrashAfter:
			handlers[id] = &CrashAfter{Inner: NewTolerantNode(s, tbl, id, sc.Timeout), K: k}
		case AdvSpammer:
			handlers[id] = Spammer{Neighbors: g.Neighbors(id)}
		default:
			return Outcome{}, fmt.Errorf("robust: unknown adversary kind %v", kind)
		}
	}

	var out Outcome
	r, err := stack.Run(s, tbl, stack.Protocol{
		Handlers: handlers,
		Holds: func(u, v graph.NodeID) bool {
			n := honest[u]
			return n != nil && slices.Contains(n.locked, v)
		},
		// Locks on adversaries are wasted quota, not part of the honest
		// matching; the honest–honest rest must be symmetric.
		Assemble: func() (*matching.Matching, error) {
			lists := make([][]graph.NodeID, g.NumNodes())
			for id, n := range honest {
				if n == nil {
					continue
				}
				for _, v := range n.locked {
					if _, adv := sc.Adversaries[v]; adv {
						out.DeadLocks++
					} else {
						lists[id] = append(lists[id], v)
					}
				}
			}
			m, err := matching.Assemble(s, func(id graph.NodeID) []graph.NodeID { return lists[id] })
			if err != nil {
				return nil, fmt.Errorf("robust: %w", err)
			}
			return m, nil
		},
	}, rt, o)
	out.Result = r
	if err != nil {
		return out, err
	}
	for id, n := range honest {
		if n == nil {
			continue
		}
		out.Revocations += n.Revocations
		out.DissolvedLocks += n.DissolvedLocks
		out.Violations += n.Violations
		out.AdaptiveArms += n.AdaptiveArms
		out.HonestSatisfaction += satisfaction.Value(s, id, out.Matching.Connections(id))
	}

	base, err := honestBaseline(s, sc.Adversaries)
	if err != nil {
		return out, err
	}
	out.BaselineSatisfaction = base
	out.publish(o.Metrics)
	return out, nil
}

// publish adds the outcome's tolerance counters to the run's metrics
// sink (the same registry the simnet instruments merged into). The
// Outcome fields remain the exact per-run view; the registry
// aggregates across scenario runs. Nil-safe.
func (out *Outcome) publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("robust_runs_total", "completed adversarial scenario runs").Inc()
	reg.Counter("robust_violations_total", "protocol violations detected by honest nodes").
		Add(int64(out.Violations))
	reg.Counter("robust_revocations_total", "timed-out proposals revoked").
		Add(int64(out.Revocations))
	reg.Counter("robust_dissolved_locks_total", "locks dissolved after peer failure").
		Add(int64(out.DissolvedLocks))
	reg.Counter("robust_dead_locks_total", "honest locks wasted on adversarial peers").
		Add(int64(out.DeadLocks))
	reg.Counter("robust_honest_locked_edges_total", "honest-honest connections locked").
		Add(int64(out.Matching.Size()))
}

// honestBaseline computes the total satisfaction of LIC on the
// honest-induced subgraph, evaluated with the original (full) lists so
// it is comparable to HonestSatisfaction.
func honestBaseline(s *pref.System, adversaries map[graph.NodeID]AdversaryKind) (float64, error) {
	honest := func(id graph.NodeID) bool {
		_, adv := adversaries[id]
		return !adv
	}
	m, err := matching.InducedLIC(s, honest)
	if err != nil {
		return 0, err
	}
	var total float64
	for id := 0; id < s.Graph().NumNodes(); id++ {
		if honest(id) {
			total += satisfaction.Value(s, id, m.Connections(id))
		}
	}
	return total, nil
}

// FractionAdversaries picks roughly frac·n adversary IDs of the given
// kind deterministically (every ceil(1/frac)-th node), a convenient
// scenario builder for sweeps.
func FractionAdversaries(n int, frac float64, kind AdversaryKind) map[graph.NodeID]AdversaryKind {
	out := make(map[graph.NodeID]AdversaryKind)
	if frac <= 0 || n == 0 {
		return out
	}
	step := int(1 / frac)
	if step < 1 {
		step = 1
	}
	for id := step - 1; id < n; id += step {
		out[id] = kind
	}
	return out
}
