// Hostile: the deployment-grade stack. Real overlays run over links
// that drop packets and alongside peers that crash mid-protocol — two
// things the paper's model assumes away (§5: reliable links; §7 lists
// malicious nodes as future work). This example composes the
// repository's answers: tolerant LID (proposal timeouts + revocable
// locks) on top of the ack/retransmit reliability substrate, over a
// network losing 25% of messages, with 15% of peers crash-faulty.
// It reports what the hostile environment actually costs relative to
// the clean run on the honest subgraph.
package main

import (
	"fmt"
	"log"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/robust"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

const (
	numPeers  = 80
	quota     = 2
	lossRate  = 0.25
	crashFrac = 0.15
)

func main() {
	src := rng.New(21)
	g := gen.GNP(src, numPeers, 8.0/float64(numPeers-1))
	sys, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(quota))
	if err != nil {
		log.Fatal(err)
	}
	adversaries := robust.FractionAdversaries(numPeers, crashFrac, robust.AdvCrash)

	fmt.Printf("overlay: %d peers (%d crash-faulty), %d potential links\n",
		numPeers, len(adversaries), g.NumEdges())
	fmt.Printf("network: %.0f%% message loss, heavy-tailed latency\n\n", 100*lossRate)

	// The scenario: tolerant nodes (or adversaries), each wrapped in a
	// reliability endpoint, over a lossy event-simulated network. The
	// loss is a link policy with its own seeded coin stream.
	sc := robust.Scenario{System: sys, Adversaries: adversaries, Timeout: 500}
	out, err := sc.Run(simnet.Event(simnet.Options{
		Seed:    5,
		Latency: simnet.ExponentialLatency(1.5),
		Policy:  faults.NewInjector(faults.Spec{Drop: lossRate}, 6),
	}), stack.Options{Stack: stack.Spec{Reliable: reliable.Config{RTO: 10}}})
	if err != nil {
		log.Fatal(err)
	}

	eps := out.Layers.Endpoints
	fmt.Printf("run quiesced: %d frames sent, %d dropped by the network,\n",
		out.Stats.TotalSent(), out.Stats.Dropped)
	fmt.Printf("  %d retransmissions, %d duplicates suppressed by the substrate\n",
		reliable.TotalRetransmits(eps), reliable.TotalDuplicates(eps))
	fmt.Printf("  %d proposals revoked by timeout (crashed peers absorbed)\n\n", out.Revocations)

	honest := numPeers - len(adversaries)
	fmt.Printf("honest peers: %d, connections: %d, total satisfaction %.2f (mean %.3f)\n",
		honest, out.Matching.Size(), out.HonestSatisfaction, out.HonestSatisfaction/float64(honest))
	fmt.Printf("clean run on the honest subgraph: total satisfaction %.2f (the hostile run keeps %.1f%%)\n",
		out.BaselineSatisfaction, 100*out.HonestSatisfaction/out.BaselineSatisfaction)
	fmt.Println("the same protocol deadlocks without timeouts and corrupts state without acks;")
	fmt.Println("see internal/robust and internal/reliable tests for the proofs-by-simulation.")
}
