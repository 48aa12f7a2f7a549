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
	"overlaymatch/internal/satisfaction"
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
	tbl := satisfaction.NewTable(sys)
	adversaries := robust.FractionAdversaries(numPeers, crashFrac, robust.AdvCrash)

	fmt.Printf("overlay: %d peers (%d crash-faulty), %d potential links\n",
		numPeers, len(adversaries), g.NumEdges())
	fmt.Printf("network: %.0f%% message loss, heavy-tailed latency\n\n", 100*lossRate)

	// Assemble the stack: tolerant nodes (or adversaries) wrapped in
	// reliability endpoints, over a lossy event-simulated network.
	handlers := make([]simnet.Handler, numPeers)
	var honest []*robust.TolerantNode
	for id := 0; id < numPeers; id++ {
		if _, bad := adversaries[id]; bad {
			handlers[id] = robust.Crash{}
			continue
		}
		n := robust.NewTolerantNode(sys, tbl, id, 500)
		honest = append(honest, n)
		handlers[id] = n
	}
	wrapped, layers := stack.Spec{Reliable: reliable.Config{RTO: 10}}.Wrap(g, handlers)
	eps := layers.Endpoints
	// The loss is a link policy with its own seeded coin stream.
	runner := simnet.NewRunner(numPeers, simnet.Options{
		Seed:    5,
		Latency: simnet.ExponentialLatency(1.5),
		Policy:  faults.NewInjector(faults.Spec{Drop: lossRate}, 6),
	})
	stats, err := runner.Run(wrapped)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run quiesced: %d frames sent, %d dropped by the network,\n",
		stats.TotalSent(), stats.Dropped)
	fmt.Printf("  %d retransmissions, %d duplicates suppressed by the substrate\n",
		reliable.TotalRetransmits(eps), reliable.TotalDuplicates(eps))

	var revocations, connections int
	var honestSat float64
	for _, n := range honest {
		revocations += n.Revocations
		conns := n.Locked()
		live := conns[:0]
		for _, v := range conns {
			if _, bad := adversaries[v]; !bad {
				live = append(live, v)
			}
		}
		connections += len(live)
		honestSat += satisfaction.Value(sys, n.ID(), live)
	}
	fmt.Printf("  %d proposals revoked by timeout (crashed peers absorbed)\n\n", revocations)

	fmt.Printf("honest peers: %d, connections: %d, total satisfaction %.2f (mean %.3f)\n",
		len(honest), connections/2, honestSat, honestSat/float64(len(honest)))
	fmt.Println("the same protocol deadlocks without timeouts and corrupts state without acks;")
	fmt.Println("see internal/robust and internal/reliable tests for the proofs-by-simulation.")
}
