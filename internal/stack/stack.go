// Package stack composes the optional layers a protocol run stacks
// between its nodes and the runtime: package reliable's ack/retransmit
// transport, which restores the paper's lossless links (§5), and
// package detector's heartbeat monitor, the failure detection the §7
// churn questions need. Every run that stacks a layer takes it from a
// Spec, so the layer order and the layers' metrics have one owner.
//
// The package also owns the run recipe that every protocol's run goes
// through (Run): the stability prober, the layers, the runtime's hooks,
// the published totals and the assembled matching.
package stack

import (
	"overlaymatch/internal/detector"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/simnet"
)

// Spec names the layers of one run. The zero Spec stacks nothing.
type Spec struct {
	// Reliable stacks the ack/retransmit transport when RTO != 0. A
	// NaN or negative RTO is stacked too, so NewEndpointConfig rejects
	// it instead of the layer vanishing silently.
	Reliable reliable.Config
	// Detector stacks the heartbeat monitor when Detector.Enabled().
	// Monitor i watches node i's neighbors in the run's graph.
	Detector detector.Config
}

// Layers holds the instances of the stacked layers, one per node; a
// layer that is not stacked is nil.
type Layers struct {
	Endpoints []*reliable.Endpoint
	Monitors  []*detector.Monitor
}

// Wrap stacks the layers around hs in the one order every run uses:
// the detector outermost, then reliable, then the protocol. So
// detector.Monitor wraps reliable.Endpoint, which wraps the node, and
// heartbeats bypass the retransmission layer.
func (s Spec) Wrap(g *graph.Graph, hs []simnet.Handler) ([]simnet.Handler, Layers) {
	var l Layers
	if s.Reliable.RTO != 0 {
		l.Endpoints = reliable.WrapConfig(hs, s.Reliable)
		hs = reliable.Handlers(l.Endpoints)
	}
	if s.Detector.Enabled() {
		adj := make([][]int, g.NumNodes())
		for i := range adj {
			adj[i] = g.Neighbors(i)
		}
		l.Monitors = detector.Wrap(hs, adj, s.Detector)
		hs = detector.Handlers(l.Monitors)
	}
	return hs, l
}

// Publish adds the stacked layers' totals of one finished run to reg,
// and nothing for a layer that is not stacked. Nil-safe: a nil
// registry is a no-op.
func (l Layers) Publish(reg *metrics.Registry) {
	if l.Endpoints != nil {
		reliable.PublishMetrics(reg, l.Endpoints)
	}
	if l.Monitors != nil {
		detector.PublishMetrics(reg, l.Monitors)
	}
}
