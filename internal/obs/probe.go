package obs

import (
	"fmt"
	"sort"

	"overlaymatch/internal/metrics"
)

// StabilitySample is one per-round stability measurement, produced by
// a protocol-specific sampler (lid.StabilitySampler) and recorded by a
// Prober. The fields mirror the stability scores of the p2p
// matching-theory literature: blocking pairs (Floréen et al.'s
// almost-stability measure), unmatched node mass, and the matched
// weight the run has locked so far.
type StabilitySample struct {
	// BlockingPairs counts edges {u,v} outside the current matching
	// where both endpoints would accept the other (free quota or a
	// strict preference over their worst connection).
	BlockingPairs int
	// UnmatchedNodes counts nodes with zero locked connections.
	UnmatchedNodes int
	// MatchedWeight is the total eq.-9 weight of locked connections.
	MatchedWeight float64
	// Msgs and Bytes are the cumulative network send totals at probe
	// time, attributing traffic to the convergence phase it bought.
	Msgs  int64
	Bytes int64
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
// Plug Probe into simnet.Options.Probe / simnet.Options.ProbeInterval.
// A nil *Prober is valid and inert, mirroring the Recorder contract.
type Prober struct {
	interval  float64
	edges     int
	optWeight float64
	sample    func(t float64) StabilitySample

	bp        *metrics.Series
	unmatched *metrics.Series
	frac      *metrics.Series
	msgs      *metrics.Series
	bytes     *metrics.Series
}

// NewProber builds a prober that records into reg every interval time
// units. edges is |E| of the workload (the denominator of the ε
// thresholds); optWeight is the LIC-optimal matched weight used for
// the matched-weight fraction series (0 disables the fraction and
// records the raw weight instead).
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
		bp:        reg.Series("probe_blocking_pairs", "blocking pairs at each probe"),
		unmatched: reg.Series("probe_unmatched_nodes", "nodes with zero locked connections at each probe"),
		frac:      reg.Series("probe_matched_weight_frac", "locked weight / LIC-optimal weight at each probe"),
		msgs:      reg.Series("probe_msgs_sent", "cumulative messages sent at each probe"),
		bytes:     reg.Series("probe_bytes_sent", "cumulative encoded frame bytes sent at each probe"),
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

// Probe takes one sample at virtual time t.
func (p *Prober) Probe(t float64) {
	if p == nil {
		return
	}
	s := p.sample(t)
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

// Curve returns the recorded blocking-pair series (nil on nil).
func (p *Prober) Curve() []metrics.SeriesPoint {
	if p == nil {
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
	points := p.bp.Points()
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
