// Churn: the paper's §7 future-work scenario — peers joining and
// leaving a live overlay. This example exercises the repository's
// dynamic extension (internal/dynamic): the overlay starts from the
// LIC matching, then absorbs a stream of leave/join events, which the
// repair engine applies one epoch per event, and reports how closely
// the repaired overlay tracks a from-scratch recomputation under both
// repair policies.
package main

import (
	"fmt"
	"log"

	"overlaymatch/internal/dlid"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
)

const (
	numPeers = 100
	quota    = 3
	events   = 60
)

func main() {
	src := rng.New(17)
	g := gen.GNP(src, numPeers, 10.0/float64(numPeers-1))
	sys, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(quota))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("universe: %d peers, %d potential links, quota %d, %d churn events\n\n",
		numPeers, g.NumEdges(), quota, events)

	schedule := dlid.Schedule(sys, rng.New(4), events, 1, 0.5, numPeers/2)
	for _, pol := range []struct {
		name         string
		completeOnly bool
	}{
		{"completion-only repair", true},
		{"preemptive repair", false},
	} {
		e, err := dynamic.NewEngine(sys, dynamic.EngineOptions{CompleteOnly: pol.completeOnly})
		if err != nil {
			log.Fatal(err)
		}
		o := e.Overlay()
		var examined, added, removed int
		var qualSum, qualMin float64 = 0, 2
		for _, ev := range schedule {
			kind := dynamic.UpdateJoin
			if ev.Leave {
				kind = dynamic.UpdateLeave
			}
			rec, err := e.Step(dynamic.TimedEvent{Kind: kind, Node: ev.Node})
			if err != nil {
				log.Fatal(err)
			}
			q, err := o.QualityRatio()
			if err != nil {
				log.Fatal(err)
			}
			examined += rec.Stats.Examined
			added += rec.Stats.Added
			removed += rec.Stats.Removed
			qualSum += q
			if q < qualMin {
				qualMin = q
			}
		}
		if err := o.Validate(); err != nil {
			log.Fatal(err)
		}

		n := float64(len(schedule))
		fmt.Printf("%s:\n", pol.name)
		fmt.Printf("  per event: %.1f edges examined, %.2f added, %.2f removed\n",
			float64(examined)/n, float64(added)/n, float64(removed)/n)
		fmt.Printf("  quality vs fresh recomputation: mean %.4f, min %.4f\n",
			qualSum/n, qualMin)
		fmt.Printf("  final: %d alive peers, %d live connections, live satisfaction %.2f\n\n",
			o.NumAlive(), o.Matching().Size(), o.LiveSatisfaction())
	}
	fmt.Println("preemptive repair buys near-perfect quality for a modest extra repair cost.")
}
