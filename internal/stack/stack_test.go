package stack_test

import (
	"errors"
	"math"
	"testing"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

func system(t *testing.T) (*pref.System, *satisfaction.Table) {
	t.Helper()
	src := rng.New(6)
	s, err := pref.Build(gen.GNP(src, 24, 0.3), pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	return s, satisfaction.NewTable(s)
}

// TestZeroSpecStacksNothing: the zero Spec hands the protocol's
// handlers back untouched and reports no layer.
func TestZeroSpecStacksNothing(t *testing.T) {
	s, tbl := system(t)
	hs := lid.Handlers(lid.NewNodes(s, tbl))
	out, layers := stack.Spec{}.Wrap(s.Graph(), hs)
	if len(out) != len(hs) {
		t.Fatalf("%d handlers out, %d in", len(out), len(hs))
	}
	for i := range hs {
		if out[i] != hs[i] {
			t.Fatalf("handler %d was wrapped", i)
		}
	}
	if layers.Endpoints != nil || layers.Monitors != nil {
		t.Fatalf("zero spec reported layers: %+v", layers)
	}
}

// TestPublishOnlyStackedLayers: Publish registers a layer's totals
// only when it is stacked, and does nothing on a nil registry.
func TestPublishOnlyStackedLayers(t *testing.T) {
	s, tbl := system(t)
	for _, c := range []struct {
		name           string
		spec           stack.Spec
		rel, detecting bool
	}{
		{"none", stack.Spec{}, false, false},
		{"reliable", stack.Spec{Reliable: reliable.Config{RTO: 30}}, true, false},
		{"detector", stack.Spec{Detector: detector.Config{Ticks: 4}}, false, true},
		{"both", stack.Spec{Reliable: reliable.Config{RTO: 30}, Detector: detector.Config{Ticks: 4}}, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, layers := c.spec.Wrap(s.Graph(), lid.Handlers(lid.NewNodes(s, tbl)))
			layers.Publish(nil) // must not panic
			reg := metrics.New()
			layers.Publish(reg)
			names := map[string]bool{}
			for _, sm := range reg.Snapshot().Samples {
				names[sm.Name] = true
			}
			if got := names["reliable_frames_total"]; got != c.rel {
				t.Fatalf("reliable totals published = %v, stacked = %v", got, c.rel)
			}
			if got := names["detector_heartbeats_total"]; got != c.detecting {
				t.Fatalf("detector totals published = %v, stacked = %v", got, c.detecting)
			}
		})
	}
}

// TestLayerOrder pins the order every run stacks: the detector
// outermost, reliable beneath it. In a lossless run only the protocol's
// PROP and REJ ride reliable DATA frames; heartbeats bypass it.
func TestLayerOrder(t *testing.T) {
	s, tbl := system(t)
	spec := stack.Spec{Reliable: reliable.Config{RTO: 30}, Detector: detector.Config{Interval: 5, Ticks: 10}}
	hs, _ := spec.Wrap(s.Graph(), lid.Handlers(lid.NewNodes(s, tbl)))
	if _, ok := hs[0].(*detector.Monitor); !ok {
		t.Fatalf("outermost layer is %T, want *detector.Monitor", hs[0])
	}
	res, err := lid.Run(s, tbl, simnet.Event(simnet.Options{Seed: 2}), lid.RunOptions{Stack: spec})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, e := range res.Layers.Endpoints {
		frames += e.Frames()
	}
	if want := res.PropMessages + res.RejMessages; frames != want {
		t.Fatalf("reliable sent %d frames, LID sent %d PROP+REJ: heartbeats rode the reliable layer", frames, want)
	}
	if res.Stats.SentByKind["HB"] == 0 {
		t.Fatal("no heartbeats: the detector was not stacked")
	}
}

// TestBadRTOIsStacked: any non-zero RTO stacks the reliable layer, so a
// NaN or negative one fails in reliable.NewEndpointConfig instead of
// silently dropping the layer.
func TestBadRTOIsStacked(t *testing.T) {
	s, tbl := system(t)
	for _, rto := range []float64{math.NaN(), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rto %v: the reliable layer was dropped, not rejected", rto)
				}
			}()
			stack.Spec{Reliable: reliable.Config{RTO: rto}}.Wrap(s.Graph(), lid.Handlers(lid.NewNodes(s, tbl)))
		}()
	}
}

// TestRunTellsAssemblyFromRunFailure: only a run that ended in a state
// that assembles no matching returns a *stack.AssemblyError, after the
// layers' totals are published; a refused hook and a failed run return
// the runtime's own error and publish no layer totals. The rounds-to-ε
// summary is published whenever the run started.
func TestRunTellsAssemblyFromRunFailure(t *testing.T) {
	s, tbl := system(t)
	broken := errors.New("asymmetric locks")
	protocol := func(assemble error) stack.Protocol {
		nodes := lid.NewNodes(s, tbl)
		return stack.Protocol{
			Handlers: lid.Handlers(nodes),
			Holds:    func(u, v graph.NodeID) bool { return nodes[u].LockedWith(v) },
			Assemble: func() (*matching.Matching, error) {
				if assemble != nil {
					return nil, assemble
				}
				return lid.BuildMatching(nodes)
			},
		}
	}
	refuse := func(int, *obs.Prober, simnet.Admitter, *metrics.Registry) (simnet.Transport, error) {
		return nil, errors.New("refused")
	}
	for _, c := range []struct {
		name              string
		p                 stack.Protocol
		rt                simnet.Runtime
		assembly, ran, ok bool
	}{
		{"ok", protocol(nil), simnet.Event(simnet.Options{Seed: 1}), false, true, true},
		{"assembly", protocol(broken), simnet.Event(simnet.Options{Seed: 1}), true, true, false},
		{"refused", protocol(nil), refuse, false, false, false},
		{"capped", protocol(nil), simnet.Event(simnet.Options{Seed: 1, MaxDeliveries: 5}), false, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.New()
			res, err := stack.Run(s, tbl, c.p, c.rt, stack.Options{
				Stack:         stack.Spec{Reliable: reliable.Config{RTO: 30}},
				ProbeInterval: 1,
				Metrics:       reg,
			})
			var assembly *stack.AssemblyError
			if (err == nil) != c.ok || errors.As(err, &assembly) != c.assembly {
				t.Fatalf("error %v: want ok %v, assembly error %v", err, c.ok, c.assembly)
			}
			if c.assembly && !errors.Is(err, broken) {
				t.Fatalf("the assembly error %v does not wrap the protocol's", err)
			}
			if (res.Matching != nil) != c.ok {
				t.Fatalf("matching %v after error %v", res.Matching, err)
			}
			names := map[string]bool{}
			for _, sm := range reg.Snapshot().Samples {
				names[sm.Name] = true
			}
			if got, want := names["reliable_frames_total"], c.ok || c.assembly; got != want {
				t.Fatalf("layer totals published = %v, want %v", got, want)
			}
			if got := names[obs.SummaryPrefix+obs.EpsKey(0)]; got != c.ran {
				t.Fatalf("rounds-to-eps summary published = %v, want %v", got, c.ran)
			}
		})
	}
}
