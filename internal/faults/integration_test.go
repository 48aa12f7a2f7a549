package faults

import (
	"testing"

	"overlaymatch/internal/dlid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/robust"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/workload"
)

// The churn-maintenance and adversary subsystems run on the event
// runtime's simnet.Options, so the fault policy threads through
// without any subsystem-specific plumbing. These tests pin that
// wiring: both run under a delivery-preserving adversary (heavy
// reorder via delay tails) and must keep their structural invariants
// — dlid.RunSelfHeal and robust's tolerant nodes check their own.

func TestDlidChurnUnderDelayFaults(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 30, B: 2, Seed: 6}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(sys)
	for seed := uint64(0); seed < 10; seed++ {
		schedule := dlid.Schedule(sys, rng.New(seed+40), 8, 400, 0.5, 8)
		spec := Spec{Delay: 0.3, DelayScale: 10}
		res, err := dlid.RunSelfHeal(sys, tbl, dlid.SelfHealConfig{}, schedule, simnet.Options{
			Seed:    seed,
			Latency: simnet.ExponentialLatency(3),
			Policy:  NewInjector(spec, injectionSeed(seed)),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Live == nil {
			t.Fatalf("seed %d: no live matching", seed)
		}
	}
}

func TestRobustScenarioUnderDelayFaults(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 20, B: 2, Seed: 8}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Delay: 0.25, DelayScale: 8}
	for seed := uint64(0); seed < 10; seed++ {
		sc := robust.Scenario{System: sys, Timeout: 1e7}
		out, err := sc.Run(simnet.Event(simnet.Options{
			Seed:    seed,
			Latency: simnet.ExponentialLatency(3),
			Policy:  NewInjector(spec, injectionSeed(seed)),
		}), stack.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// No adversaries + delivery preserved: the tolerant protocol
		// must still land exactly on LIC despite the reordering.
		want := matching.LIC(sys, satisfaction.NewTable(sys))
		if !out.Matching.Equal(want) {
			t.Fatalf("seed %d: tolerant LID under delay faults differs from LIC", seed)
		}
		if out.Violations != 0 {
			t.Fatalf("seed %d: %d violations", seed, out.Violations)
		}
	}
}
