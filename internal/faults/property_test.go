package faults

import (
	"testing"
	"time"

	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/workload"
)

// workloadFor spreads the property seeds across topologies, metrics
// and quotas so the 500-schedule sweep also varies the instance.
func workloadFor(seed uint64) workload.Synthetic {
	topos := []string{"gnp", "geometric", "ba", "ring"}
	metrics := []string{"random", "symmetric", "distance"}
	return workload.Synthetic{
		Topology: topos[seed%uint64(len(topos))],
		Metric:   metrics[(seed/4)%uint64(len(metrics))],
		N:        20 + int(seed%5)*10, // 20..60
		B:        1 + int(seed%3),     // 1..3
		Seed:     seed * 1_000_003,
	}
}

// TestPropertyLIDEqualsLICUnderFaults is the PR's headline property
// (extending E2): across 500+ seeded fault schedules, LID run through
// the reliable substrate under drops, duplicates, corruption and
// heavy-tailed delays still locks exactly the LIC edges, with
// symmetric locks and respected quotas (BuildMatching + Validate
// inside the trial check both). Delivery is restored by reliable, so
// Lemmas 3–6 must hold schedule-for-schedule.
func TestPropertyLIDEqualsLICUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("500-seed property sweep")
	}
	spec := Spec{Drop: 0.1, Dup: 0.08, Corrupt: 0.05, Delay: 0.15, DelayScale: 6}
	const seeds = 520
	for seed := uint64(0); seed < seeds; seed++ {
		w := workloadFor(seed)
		sys, err := w.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		trial := LIDTrial(sys, TrialOptions{Reliable: true})
		inj := NewInjector(spec, injectionSeed(seed))
		if err := runTrial(trial, seed, inj); err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, w, err)
		}
	}
}

// TestPropertyBareLIDUnderDeliveryPreservingFaults checks the paper's
// own model: bare LID (no transport) under an adversary that reorders
// and delays arbitrarily but never loses or corrupts. This is the
// regime of Lemmas 3–6 and must hold without any substrate.
func TestPropertyBareLIDUnderDeliveryPreservingFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	spec := Spec{Delay: 0.4, DelayScale: 25}
	if !spec.PreservesDelivery() {
		t.Fatal("test spec must preserve delivery")
	}
	for seed := uint64(0); seed < 200; seed++ {
		w := workloadFor(seed)
		sys, err := w.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		trial := LIDTrial(sys, TrialOptions{Reliable: false})
		if err := runTrial(trial, seed, NewInjector(spec, injectionSeed(seed))); err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, w, err)
		}
	}
}

// TestPropertyHealingPartitionAndCrash drives reliable-wrapped LID
// through a partition that heals and a crash that restarts: the
// retransmission timers must carry the protocol across the outage and
// the outcome must still equal LIC.
func TestPropertyHealingPartitionAndCrash(t *testing.T) {
	spec := Spec{
		Partitions: []Partition{{Start: 5, End: 120, Lo: 0, Hi: 9}},
		Crashes:    []Crash{{Start: 10, End: 150, Node: 12}},
	}
	for seed := uint64(0); seed < 40; seed++ {
		w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 30, B: 2, Seed: seed + 1}
		sys, err := w.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		trial := LIDTrial(sys, TrialOptions{Reliable: true, RTO: 40})
		if err := runTrial(trial, seed, NewInjector(spec, injectionSeed(seed))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPropertyClusterUnderFaults runs the in-process transport.Cluster
// through the same policy: the schedule is the Go scheduler's, the
// verdicts are serialized by the cluster, and the outcome must still
// be the unique LIC matching. Bare LID gets a delivery-preserving
// adversary (delay only); the drop/dup/corrupt mix goes through
// reliable, whose retransmission timers ride the cluster's wall clock.
func TestPropertyClusterUnderFaults(t *testing.T) {
	cases := []struct {
		name     string
		spec     Spec
		reliable bool
	}{
		{"bare-delay", Spec{Delay: 0.2, DelayScale: 0.01}, false},
		{"reliable-mixed", Spec{Drop: 0.1, Dup: 0.1, Corrupt: 0.05, Delay: 0.1, DelayScale: 0.01}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 6; seed++ {
				w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: seed + 7}
				sys, err := w.Build()
				if err != nil {
					t.Fatalf("seed %d: build: %v", seed, err)
				}
				tbl := satisfaction.NewTable(sys)
				want := matching.LIC(sys, tbl)
				nodes := lid.NewNodes(sys, tbl)
				handlers := lid.Handlers(nodes)
				if tc.reliable {
					// RTO 50 virtual units = 50ms of wall clock per
					// retry.
					handlers = reliable.Handlers(reliable.WrapConfig(handlers, reliable.Config{RTO: 50}))
				}
				cluster, err := transport.NewMemoryCluster(sys.Graph().NumNodes(), transport.ClusterConfig{
					Timeout: 30 * time.Second,
					Policy:  NewInjector(tc.spec, injectionSeed(seed)),
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if _, err := cluster.Run(handlers); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				m, err := lid.BuildMatching(nodes)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !m.Equal(want) {
					t.Fatalf("seed %d: goroutine LID under faults differs from LIC", seed)
				}
				if err := m.Validate(sys); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestTrialCatchesBrokenOutcome sanity-checks the oracle itself: a
// trial whose expected matching is perturbed must report a violation.
func TestTrialCatchesBrokenOutcome(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 20, B: 2, Seed: 3}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	trial := LIDTrial(sys, TrialOptions{Reliable: true})
	// A drop-everything adversary on BARE lid would hang; through
	// reliable it converges. Instead break the run by duplicating on
	// bare LID: the duplicate PROP hits a node in a resolved state and
	// the protocol's own invariant check panics, which runTrial must
	// surface as an error.
	bare := LIDTrial(sys, TrialOptions{Reliable: false, MaxDeliveries: 100000})
	var caught error
	for seed := uint64(0); seed < 50 && caught == nil; seed++ {
		caught = runTrial(bare, seed, NewInjector(Spec{Dup: 0.5}, injectionSeed(seed)))
	}
	if caught == nil {
		t.Fatal("bare LID under 50% duplication never violated — the oracle is blind")
	}
	t.Logf("oracle caught: %v", caught)
	// And the reliable-wrapped trial stays clean on the same adversary.
	if err := runTrial(trial, 1, NewInjector(Spec{Dup: 0.5}, injectionSeed(1))); err != nil {
		t.Fatalf("reliable trial violated under duplication: %v", err)
	}
}

// TestMaxDeliveriesGuardFires proves the non-termination invariant is
// detectable: an unhealed partition plus retry-forever reliable links
// can never terminate, and the delivery bound must turn that into an
// error rather than an infinite loop.
func TestMaxDeliveriesGuardFires(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 16, B: 2, Seed: 5}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Partitions: []Partition{{Start: 0, End: NoHeal, Lo: 0, Hi: 7}}}
	trial := LIDTrial(sys, TrialOptions{Reliable: true, MaxDeliveries: 20000})
	verr := runTrial(trial, 1, NewInjector(spec, 2))
	if verr == nil {
		t.Fatal("unhealed partition terminated — the guard never fired")
	}
	t.Logf("guard: %v", verr)
}
