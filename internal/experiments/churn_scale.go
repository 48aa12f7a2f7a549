package experiments

import (
	"fmt"
	"time"

	"overlaymatch/internal/dlid"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// E9Churn (§7 extension): step leave/join churn through the dynamic
// Engine, one epoch per event, under both repair policies, and report
// repair cost (edges examined/changed per event) and repair quality
// (live weight vs a fresh LIC of the live subgraph) after every event.
// The events come from dlid.Schedule, the feed E14 replays. Expected
// shape: preemptive repair holds quality ≈ 1 at a modest extra cost;
// completion-only repair is cheaper but drifts below 1.
func E9Churn(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E9 (§7): churn repair cost and quality",
		"topology", "policy", "events", "mean examined", "mean added", "mean removed",
		"mean quality", "min quality", "mean live sat")
	n := cfg.pick(30, 120)
	events := cfg.pick(20, 120)
	for _, topo := range suiteTopologies {
		for _, policy := range []struct {
			name         string
			completeOnly bool
		}{{"complete", true}, {"preempt", false}} {
			sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 3, Seed: cfg.Seed ^ 0x99}.Build()
			if err != nil {
				return nil, err
			}
			e, err := dynamic.NewEngine(sys, dynamic.EngineOptions{CompleteOnly: policy.completeOnly})
			if err != nil {
				return nil, err
			}
			o := e.Overlay()
			var ex, add, rem, qual, sat []float64
			for _, ev := range dlid.Schedule(sys, rng.New(cfg.Seed+17), events, 1, 0.5, n/3) {
				rec, err := e.Step(timedEvent(ev))
				if err != nil {
					return nil, err
				}
				q, err := o.QualityRatio()
				if err != nil {
					return nil, err
				}
				ex = append(ex, float64(rec.Stats.Examined))
				add = append(add, float64(rec.Stats.Added))
				rem = append(rem, float64(rec.Stats.Removed))
				qual = append(qual, q)
				sat = append(sat, o.LiveSatisfaction())
			}
			if err := o.Validate(); err != nil {
				return nil, fmt.Errorf("E9: overlay invalid after churn: %w", err)
			}
			t.AddRowf(topo, policy.name, len(ex),
				stats.Mean(ex), stats.Mean(add), stats.Mean(rem),
				stats.Mean(qual), stats.Min(qual), stats.Mean(sat))
		}
	}
	return []*stats.Table{t}, nil
}

// timedEvent converts a dlid schedule entry into the Engine's update.
func timedEvent(ev dlid.Event) dynamic.TimedEvent {
	kind := dynamic.UpdateJoin
	if ev.Leave {
		kind = dynamic.UpdateLeave
	}
	return dynamic.TimedEvent{At: ev.At, Kind: kind, Node: ev.Node}
}

// E10Scalability: scalability of the centralized LIC scan, the
// event-driven LID simulation, and the goroutine LID runtime as the
// network grows. The rendered table carries only the deterministic
// workload and agreement columns, so the golden output file is
// byte-identical across machines and runs; the machine-dependent
// wall-clock measurements are routed to the run's metric sink (and
// from there into the manifest) as e10_*_ms gauges instead of leaking
// into golden stdout. The shape to verify there is near-linear growth
// in m for LIC and the event runtime.
func E10Scalability(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E10: scalability workloads (avg deg ~8, b=3; timings in manifest/metrics)",
		"n", "edges", "matched", "LIC weight", "runtimes agree")
	ns := []int{500, 1000, 2000, 4000, 8000}
	if cfg.Quick {
		ns = []int{200, 400}
	}
	for _, n := range ns {
		sys, err := workload.Synthetic{Topology: "gnp", Metric: "random", N: n, B: 3, Seed: cfg.Seed ^ uint64(10*n)}.Build()
		if err != nil {
			return nil, err
		}
		tbl := satisfaction.NewTableParallel(sys, cfg.Workers)

		t0 := time.Now()
		lic := matching.LICParallel(sys, tbl, cfg.Workers)
		licM := lic.Weight(sys)
		licDur := time.Since(t0)

		t1 := time.Now()
		resE, err := lid.RunEvent(sys, tbl, simnet.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		evDur := time.Since(t1)

		t2 := time.Now()
		resG, err := lid.RunGoroutines(sys, tbl, 120*time.Second)
		if err != nil {
			return nil, err
		}
		goDur := time.Since(t2)

		if resE.Matching.Weight(sys) != licM || resG.Matching.Weight(sys) != licM {
			return nil, fmt.Errorf("E10: runtimes disagree at n=%d", n)
		}
		if cfg.Metrics != nil {
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
			cfg.Metrics.Gauge(fmt.Sprintf("e10_lic_ms{n=%d}", n),
				"E10 wall clock of the centralized LIC scan (machine-dependent)").Set(ms(licDur))
			cfg.Metrics.Gauge(fmt.Sprintf("e10_lid_event_ms{n=%d}", n),
				"E10 wall clock of the event-driven LID run (machine-dependent)").Set(ms(evDur))
			cfg.Metrics.Gauge(fmt.Sprintf("e10_lid_goroutine_ms{n=%d}", n),
				"E10 wall clock of the goroutine LID run (machine-dependent)").Set(ms(goDur))
		}
		t.AddRowf(n, sys.Graph().NumEdges(), lic.Size(), licM, "yes")
	}
	return []*stats.Table{t}, nil
}
