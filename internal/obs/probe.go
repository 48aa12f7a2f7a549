package obs

import (
	"fmt"
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// StabilitySample is one per-round stability measurement, produced by
// a StabilitySampler and recorded by a Prober. The fields mirror the
// stability scores of the p2p matching-theory literature: blocking
// pairs (Floréen et al.'s almost-stability measure), unmatched node
// mass, and the matched weight the run has locked so far.
type StabilitySample struct {
	// BlockingPairs counts edges {u,v} outside the current matching
	// where both endpoints would accept the other (free quota or a
	// strict preference over their worst connection).
	BlockingPairs int
	// UnmatchedNodes counts nodes that hold no connection.
	UnmatchedNodes int
	// MatchedWeight is the total eq.-9 weight of matched edges.
	MatchedWeight float64
	// Msgs and Bytes are the cumulative network send totals at probe
	// time, attributing traffic to the convergence phase it bought.
	// The Prober fills them from the totals the runtime hands it.
	Msgs  int64
	Bytes int64
}

// StabilitySampler builds the per-round stability measurement for any
// matching protocol. holds(u, v) reports whether node u currently
// holds its connection to neighbor v — LID's locks, Gale–Shapley's
// mutual engagements, a one-round baseline's mutual proposals — and
// every measurement derives from that view alone:
//
//   - An edge counts as matched, and its eq.-9 weight is summed, once
//     BOTH endpoints hold it.
//   - A node is unmatched while it holds nothing.
//   - {u,v} is a blocking pair if the edge is unmatched and each
//     endpoint would accept the other: it holds fewer connections than
//     its quota, or {u,v} is strictly heavier than the lightest
//     connection it holds. A node with quota 0 accepts nothing.
//     Preferences here are the eq.-9 weight order the protocols
//     propose in (the shared strict total order that
//     satisfaction.Table.Heavier compares), not the raw
//     preference-list ranks — the paper's algorithms optimize
//     weights, and only under the weight order is LID's final
//     matching exactly stable.
//
// Under LID, with holds(u, v) = u locked {u,v}, every component is
// provably monotone (the invariant experiment E17 enforces). Locks are
// never revoked, so the matched set only grows and the matched weight
// is non-decreasing. Acceptance can only flip true -> false (a node
// below quota accepts everyone; at quota fill its locked set freezes
// forever), and matching an edge only removes it, so the blocking-pair
// count is non-increasing — and reaches 0 at termination: an edge left
// unmatched by the locally-heaviest matching always has an endpoint
// whose quota filled with strictly heavier edges.
//
// The sampler only reads protocol state through holds; it never
// mutates it and never feeds back into the run (probed runs stay
// bit-identical to unprobed ones). Its scratch buffers are reused
// across probes, and it leaves Msgs and Bytes to the Prober.
func StabilitySampler(s *pref.System, tbl *satisfaction.Table, holds func(u, v graph.NodeID) bool) func(t float64) StabilitySample {
	g := s.Graph()
	edges := g.Edges()
	// held[u] counts u's held connections and lightest[u] is the
	// EdgeID of the lightest one, meaningful only once held[u] > 0.
	held := make([]int, g.NumNodes())
	lightest := make([]graph.EdgeID, g.NumNodes())
	matched := make([]bool, len(edges))
	hold := func(u graph.NodeID, k graph.EdgeID) {
		held[u]++
		if held[u] == 1 || tbl.Heavier(lightest[u], k) {
			lightest[u] = k
		}
	}
	accepts := func(u graph.NodeID, k graph.EdgeID) bool {
		q := s.Quota(u)
		return held[u] < q || (q > 0 && tbl.Heavier(k, lightest[u]))
	}
	return func(float64) StabilitySample {
		var smp StabilitySample
		clear(held)
		for id, e := range edges {
			k := graph.EdgeID(id)
			hu, hv := holds(e.U, e.V), holds(e.V, e.U)
			if hu {
				hold(e.U, k)
			}
			if hv {
				hold(e.V, k)
			}
			matched[id] = hu && hv
			if matched[id] {
				smp.MatchedWeight += satisfaction.EdgeWeight(s, e)
			}
		}
		for _, h := range held {
			if h == 0 {
				smp.UnmatchedNodes++
			}
		}
		for id, e := range edges {
			if matched[id] {
				continue
			}
			k := graph.EdgeID(id)
			if accepts(e.U, k) && accepts(e.V, k) {
				smp.BlockingPairs++
			}
		}
		return smp
	}
}

// Epsilons is the default ε ladder of the rounds-to-ε summary: the
// first probe time at which blocking pairs ≤ ε·|E|, down to exact
// stability at ε = 0.
var Epsilons = []float64{0.1, 0.01, 0.001, 0}

// NeverConverged is the sentinel value of a rounds-to-ε rung the run
// never reached within its probe budget. It is a real published gauge
// value — a non-convergent run writes stability_rounds_to_eps_* = -1
// rather than leaving the gauge absent (see DESIGN.md §9) — and the
// value SummaryValue reports for a rung missing from a summary map, so
// consumers cannot conflate "never" with "converged at round 0".
const NeverConverged = -1.0

// SummaryValue reads one ε rung from a RoundsToEps summary map,
// returning NeverConverged when the rung is absent. Table-rendering
// consumers must use this (not a bare map index, whose zero value
// reads as instant convergence).
func SummaryValue(m map[string]float64, eps float64) float64 {
	if v, ok := m[EpsKey(eps)]; ok {
		return v
	}
	return NeverConverged
}

// Prober samples a stability sampler on a fixed virtual-time interval
// and appends the results to metrics.Series instruments in a registry.
// A run hands it to its runtime as the simnet.Runtime probe hook (see
// stack.Run): the event Runner calls Probe at every multiple of
// Interval with its cumulative send totals. A nil *Prober is valid and
// inert, mirroring the Recorder contract.
type Prober struct {
	interval  float64
	edges     int
	optWeight float64
	sample    func(t float64) StabilitySample
	last      StabilitySample

	// The series live in reg from the first Probe on, so a prober that
	// never samples — its runtime refused the hook, say — leaves reg as
	// it found it.
	reg       *metrics.Registry
	bp        *metrics.Series
	unmatched *metrics.Series
	frac      *metrics.Series
	msgs      *metrics.Series
	bytes     *metrics.Series
}

// NewProber builds a prober that records into reg every interval time
// units, registering its probe_* series there on the first sample.
// edges is |E| of the workload (the denominator of the ε thresholds);
// optWeight is the LIC-optimal matched weight used for the
// matched-weight fraction series (0 disables the fraction and records
// the raw weight instead).
func NewProber(reg *metrics.Registry, interval float64, edges int, optWeight float64, sample func(t float64) StabilitySample) *Prober {
	if interval <= 0 {
		panic("obs: NewProber needs a positive interval")
	}
	if sample == nil {
		panic("obs: NewProber needs a sampler")
	}
	return &Prober{
		interval:  interval,
		edges:     edges,
		optWeight: optWeight,
		sample:    sample,
		reg:       reg,
	}
}

// Interval returns the probe interval (0 on nil — simnet treats that
// as probing disabled).
func (p *Prober) Interval() float64 {
	if p == nil {
		return 0
	}
	return p.interval
}

// Probe takes one sample at virtual time t. msgs and bytes are the
// runtime's cumulative (messages, encoded frame bytes) send totals at
// that moment, attributing traffic to the convergence phase it bought.
func (p *Prober) Probe(t float64, msgs, bytes int64) {
	if p == nil {
		return
	}
	if p.bp == nil {
		reg := p.reg
		p.bp = reg.Series("probe_blocking_pairs", "blocking pairs at each probe")
		p.unmatched = reg.Series("probe_unmatched_nodes", "nodes with zero locked connections at each probe")
		p.frac = reg.Series("probe_matched_weight_frac", "locked weight / LIC-optimal weight at each probe")
		p.msgs = reg.Series("probe_msgs_sent", "cumulative messages sent at each probe")
		p.bytes = reg.Series("probe_bytes_sent", "cumulative encoded frame bytes sent at each probe")
	}
	s := p.sample(t)
	s.Msgs, s.Bytes = msgs, bytes
	p.last = s
	p.bp.Append(t, float64(s.BlockingPairs))
	p.unmatched.Append(t, float64(s.UnmatchedNodes))
	if p.optWeight > 0 {
		p.frac.Append(t, s.MatchedWeight/p.optWeight)
	} else {
		p.frac.Append(t, s.MatchedWeight)
	}
	p.msgs.Append(t, float64(s.Msgs))
	p.bytes.Append(t, float64(s.Bytes))
}

// OptWeight returns the LIC-optimal matched weight the prober was
// built with, the denominator of its weight-fraction series (0 on nil).
func (p *Prober) OptWeight() float64 {
	if p == nil {
		return 0
	}
	return p.optWeight
}

// Last returns the most recent sample, send totals included: the end
// state of a finished run (zero on nil or before the first probe).
func (p *Prober) Last() StabilitySample {
	if p == nil {
		return StabilitySample{}
	}
	return p.last
}

// Curve returns the recorded blocking-pair series (nil on nil or
// before the first probe).
func (p *Prober) Curve() []metrics.SeriesPoint {
	if p == nil || p.bp == nil {
		return nil
	}
	return p.bp.Points()
}

// RoundsToEps computes the rounds-to-ε summary from the recorded
// blocking-pair curve: for each ε the first probe time with blocking
// pairs ≤ ε·edges, or -1 if the run never got there. Keys are
// rendered as fixed-precision strings so the summary marshals
// deterministically.
func (p *Prober) RoundsToEps(eps []float64) map[string]float64 {
	if p == nil {
		return nil
	}
	if eps == nil {
		eps = Epsilons
	}
	points := p.Curve()
	out := make(map[string]float64, len(eps))
	for _, e := range eps {
		threshold := e * float64(p.edges)
		t := NeverConverged
		for _, pt := range points {
			if pt.V <= threshold {
				t = pt.T
				break
			}
		}
		out[EpsKey(e)] = t
	}
	return out
}

// EpsKey renders one ε level as the summary map key / gauge suffix.
func EpsKey(eps float64) string {
	return fmt.Sprintf("%.3f", eps)
}

// SummaryPrefix is the gauge-name prefix PublishSummary writes under;
// the experiments manifest collects every gauge with this prefix into
// its rounds-to-ε block.
const SummaryPrefix = "stability_rounds_to_eps_"

// PublishSummary writes the rounds-to-ε summary into reg as gauges
// named SummaryPrefix + EpsKey(ε), e.g. stability_rounds_to_eps_0.010.
func (p *Prober) PublishSummary(reg *metrics.Registry, eps []float64) {
	if p == nil || reg == nil {
		return
	}
	summary := p.RoundsToEps(eps)
	keys := make([]string, 0, len(summary))
	for k := range summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		reg.Gauge(SummaryPrefix+k, "first probe time with blocking pairs <= eps*|E| (-1 = never)").Set(summary[k])
	}
}
