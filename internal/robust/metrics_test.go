package robust

import (
	"testing"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// TestScenarioPublishesMetrics: a scenario run with a sink registry
// attached must publish its tolerance counters (and the underlying
// simnet instruments) without changing the outcome.
func TestScenarioPublishesMetrics(t *testing.T) {
	s := randomSystem(t, 4, 30, 0.3, 2)
	sc := Scenario{
		System:      s,
		Adversaries: FractionAdversaries(30, 0.2, AdvCrash),
		Timeout:     50,
	}
	rt := simnet.Event(simnet.Options{Seed: 4, Latency: simnet.UniformLatency(1, 3)})
	plain, err := sc.Run(rt, stack.Options{})
	if err != nil {
		t.Fatal(err)
	}

	sink := metrics.New()
	out, err := sc.Run(rt, stack.Options{Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Matching.Equal(plain.Matching) {
		t.Fatal("metrics sink changed the honest matching")
	}

	counter := func(name string) int { return int(sink.Counter(name, "").Value()) }
	if counter("robust_runs_total") != 1 {
		t.Fatalf("robust_runs_total = %d", counter("robust_runs_total"))
	}
	if counter("robust_revocations_total") != out.Revocations {
		t.Fatalf("revocations: registry %d, outcome %d",
			counter("robust_revocations_total"), out.Revocations)
	}
	if counter("robust_dead_locks_total") != out.DeadLocks {
		t.Fatalf("dead locks: registry %d, outcome %d",
			counter("robust_dead_locks_total"), out.DeadLocks)
	}
	if counter("robust_honest_locked_edges_total") != out.Matching.Size() {
		t.Fatal("locked-edge counter disagrees with the matching")
	}
	if counter("simnet_deliveries_total") != out.Stats.Deliveries {
		t.Fatal("simnet instruments missing from the sink")
	}
}
