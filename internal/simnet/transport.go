package simnet

import (
	"fmt"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
)

// Transport is the runtime-agnostic execution substrate the protocol
// stack runs on: something that takes one Handler per node, drives
// Init and HandleMessage (sequentially per node, possibly concurrently
// across nodes), delivers timers, and reports the run's statistics.
//
// Two implementations exist:
//
//   - Runner — the deterministic discrete-event simulator. The
//     conformance harness: every protocol result is defined by what
//     the Runner computes, and the experiment registry (E1–E20) gates
//     against it bit-for-bit.
//   - transport.Cluster — the wall-clock concurrent runtime (package
//     internal/transport): one goroutine and unbounded inbox per node,
//     every message encoded as a binary frame. It runs on loopback
//     UDP sockets (coalesced, checksummed datagrams) or on an
//     in-process wire that hands each decoded frame to the receiver's
//     inbox; the latter exercises real concurrency and the race
//     detector at simulator scale. Its runs must produce the same
//     matchings the Runner certifies.
//
// The interface is deliberately minimal: protocols never see it (they
// are written against Handler/Context), but harnesses, experiments and
// CLIs can hold either backend behind one variable.
type Transport interface {
	// Run executes the protocol to termination: Init on every node,
	// then message deliveries until the backend's termination condition
	// holds (an empty event queue for the Runner, a balanced
	// activation/completion count for a Cluster). One Transport value
	// runs once.
	Run(handlers []Handler) (Stats, error)
}

// Runtime builds the Transport for one run of n nodes. The run passes
// its three hooks: probe, the stability prober; admit, the admission
// scheduler; and sink, the run's one metrics registry. Any of them may
// be nil. A Runtime is the one place where a hook meets the runtime, so
// a runtime that cannot honour a hook returns an error here, before any
// node starts. Every runtime merges its simnet_* counters (Counts) into
// the sink when its run returns, and publishes nothing without one.
//
// Event builds the Runner. Package transport's Memory and Loopback
// build a Cluster, which honours the sink only.
type Runtime func(n int, probe *obs.Prober, admit Admitter, sink *metrics.Registry) (Transport, error)

// Event returns the Runtime of the event Runner under opts, and the
// only way a prober or a sink reaches a Runner. The run's hooks fill a
// copy of opts, so one Runtime serves any number of runs. Options
// keeps an Admitter field for Runners built by hand; opts that set it
// are an error here, so the run's admitter never replaces it silently.
func Event(opts Options) Runtime {
	return func(n int, probe *obs.Prober, admit Admitter, sink *metrics.Registry) (Transport, error) {
		if opts.Admitter != nil {
			return nil, fmt.Errorf("simnet: Event options set an Admitter; pass it to the run instead")
		}
		run := opts
		run.Admitter = admit
		r := NewRunner(n, run)
		r.probe, r.sink = probe, sink
		return r, nil
	}
}

// Endpoint is the per-node attachment surface a Transport hands its
// handlers on every call: the Context (identity, send, halt, clock)
// plus local timers. Every built-in runtime context provides it; layer
// wrappers (reliable.Endpoint's relCtx, package robust's adaptive
// timers) rely on exactly this surface and nothing more, which is what
// lets the whole stack move between backends without edits.
type Endpoint interface {
	Context
	TimerSetter
}

// Compile-time conformance: the simulator is a Transport and its
// context an Endpoint. transport.Cluster asserts the same in package
// internal/transport (it cannot be asserted here without an import
// cycle).
var (
	_ Transport = (*Runner)(nil)
	_ Endpoint  = (*runnerCtx)(nil)
)
