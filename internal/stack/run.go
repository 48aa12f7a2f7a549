package stack

import (
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// Options configures one run beyond its runtime and its protocol.
type Options struct {
	// Stack names the layers wrapped around the protocol's nodes.
	Stack Spec
	// ProbeInterval, if positive, attaches the stability prober: every
	// ProbeInterval units of virtual time an obs.StabilitySampler
	// measurement over what the nodes hold (blocking pairs, unmatched
	// node mass, matched-weight fraction of the LIC optimum, cumulative
	// message/byte counters) is appended to the probe_* series of
	// Metrics. Probing reads protocol state only, so the run itself is
	// bit-identical to an unprobed one.
	ProbeInterval float64
	// Metrics is the run's one sink. It receives the probe series and
	// the rounds-to-ε summary (a private registry when nil), the
	// runtime's simnet_* counters (the simnet.Runtime sink hook) on
	// every return, and, once the run has ended, the stacked layers'
	// totals.
	Metrics *metrics.Registry
}

// Protocol is what a run needs of one protocol's nodes.
type Protocol struct {
	// Handlers are the nodes, one per graph node, before any layer is
	// stacked.
	Handlers []simnet.Handler
	// Holds reports whether node u holds its connection to neighbor v,
	// the view the stability sampler reads (see obs.StabilitySampler).
	Holds func(u, v graph.NodeID) bool
	// Assemble builds the matching from the nodes' state once the run
	// has ended.
	Assemble func() (*matching.Matching, error)
	// Admitter, if non-nil, is the run's admission scheduler.
	Admitter simnet.Admitter
}

// Result bundles the outcome of one run.
type Result struct {
	// Matching is what Protocol.Assemble built (nil when the run
	// failed before it).
	Matching *matching.Matching
	Stats    simnet.Stats
	// Layers are the stacked layers' instances.
	Layers Layers
	// Prober holds the stability curve and its rounds-to-ε summary
	// (nil when Options.ProbeInterval is 0).
	Prober *obs.Prober
}

// AssemblyError is the error of a run that ended but whose nodes'
// state assembles no valid matching. Every other error Run returns is
// the runtime's: a hook it refused, or a failed run.
type AssemblyError struct{ Err error }

func (e *AssemblyError) Error() string { return e.Err.Error() }

func (e *AssemblyError) Unwrap() error { return e.Err }

// Run is the one run recipe. It builds the prober over p.Holds,
// stacks the layers around p.Handlers, hands the prober, p.Admitter
// and the sink to the Transport rt builds, runs it, publishes the
// rounds-to-ε summary and the layers' totals, and assembles the
// matching. A runtime that cannot honour a hook fails the run before
// any node starts. The summary is published even when the run fails:
// rungs the curve never reached carry the obs.NeverConverged sentinel,
// so a non-convergent run leaves an explicit -1 gauge rather than an
// absent one.
func Run(s *pref.System, tbl *satisfaction.Table, p Protocol, rt simnet.Runtime, o Options) (Result, error) {
	g := s.Graph()
	var res Result
	probeReg := o.Metrics
	if o.ProbeInterval > 0 {
		if probeReg == nil {
			probeReg = metrics.New()
		}
		optimum := matching.LIC(s, tbl).Weight(s)
		res.Prober = obs.NewProber(probeReg, o.ProbeInterval, g.NumEdges(), optimum,
			obs.StabilitySampler(s, tbl, p.Holds))
	}
	hs, layers := o.Stack.Wrap(g, p.Handlers)
	res.Layers = layers
	tr, err := rt(g.NumNodes(), res.Prober, p.Admitter, o.Metrics)
	if err != nil {
		return res, err
	}
	res.Stats, err = tr.Run(hs)
	res.Prober.PublishSummary(probeReg, nil)
	if err != nil {
		return res, err
	}
	layers.Publish(o.Metrics)
	if res.Matching, err = p.Assemble(); err != nil {
		return res, &AssemblyError{err}
	}
	return res, nil
}
