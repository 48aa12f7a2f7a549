package robust

import (
	"testing"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// The full hardened stack: tolerant LID (proposal timeouts) running
// through the ack/retransmit reliability layer over a lossy network,
// with crash-silent adversaries mixed in. This is the closest the
// repository gets to a deployment scenario: unreliable links AND
// unreliable peers at once. The reliability layer must pass the
// tolerant protocol's timer tokens through (Endpoint.SetTimer), keep
// delivery exactly-once, and the composition must terminate with a
// consistent honest matching.

// runStack wires tolerant nodes through reliable endpoints.
func runStack(t *testing.T, seed uint64, dropP float64, adversaries map[graph.NodeID]AdversaryKind) (
	[]*TolerantNode, []*reliable.Endpoint, simnet.Stats) {
	t.Helper()
	s := randomSystem(t, seed, 20, 0.4, 2)
	tbl := satisfaction.NewTable(s)

	handlers := make([]simnet.Handler, 20)
	var honest []*TolerantNode
	for id := 0; id < 20; id++ {
		if kind, isAdv := adversaries[id]; isAdv {
			switch kind {
			case AdvCrash:
				handlers[id] = Crash{}
			case AdvSpammer:
				handlers[id] = Spammer{Neighbors: s.Graph().Neighbors(id)}
			}
			continue
		}
		// Timeout must exceed the worst-case retransmission-extended
		// round trip; with rto=8 and ~40% worst loss, 400 is ample.
		n := NewTolerantNode(s, tbl, id, 400)
		honest = append(honest, n)
		handlers[id] = n
	}
	eps := reliable.Wrap(handlers, 8, 0)
	var drop simnet.DropFunc
	if dropP > 0 {
		drop = simnet.UniformDrop(dropP)
	}
	runner := simnet.NewRunner(20, simnet.Options{
		Seed:    seed + 1,
		Drop:    drop,
		Latency: simnet.ExponentialLatency(1),
	})
	stats, err := runner.Run(reliable.Handlers(eps))
	if err != nil {
		t.Fatalf("hardened stack failed: %v", err)
	}
	return honest, eps, stats
}

func honestMatchingOf(t *testing.T, s *pref.System, honest []*TolerantNode, adversaries map[graph.NodeID]AdversaryKind) *matching.Matching {
	t.Helper()
	lists := make([][]graph.NodeID, s.Graph().NumNodes())
	for _, n := range honest {
		for _, v := range n.Locked() {
			if _, adv := adversaries[v]; !adv {
				lists[n.ID()] = append(lists[n.ID()], v)
			}
		}
	}
	m, err := matching.Assemble(s, func(id graph.NodeID) []graph.NodeID { return lists[id] })
	if err != nil {
		t.Fatalf("honest locks: %v", err)
	}
	return m
}

func TestHardenedStackLossOnly(t *testing.T) {
	// No adversaries, 30% loss, honest timeouts above the inflated
	// round trips: the outcome must equal LIC exactly — loss alone
	// costs nothing but retransmissions.
	for seed := uint64(0); seed < 10; seed++ {
		s := randomSystem(t, seed, 20, 0.4, 2)
		tbl := satisfaction.NewTable(s)
		honest, eps, stats := runStack(t, seed, 0.3, nil)
		m := honestMatchingOf(t, s, honest, nil)
		if !m.Equal(matching.LIC(s, tbl)) {
			t.Fatalf("seed %d: hardened stack over loss != LIC", seed)
		}
		if reliable.TotalRetransmits(eps) == 0 {
			t.Fatalf("seed %d: no retransmissions at 30%% loss", seed)
		}
		if stats.Dropped == 0 {
			t.Fatalf("seed %d: loss model inert", seed)
		}
		// No honest timeout should have fired: reliability made every
		// answer arrive eventually, well within the generous timeout.
		for _, n := range honest {
			if n.Revocations != 0 {
				t.Fatalf("seed %d: spurious revocations under pure loss", seed)
			}
		}
	}
}

func TestHardenedStackLossAndCrashes(t *testing.T) {
	// 20% loss and 3 crashed peers: must terminate, stay symmetric,
	// and keep a consistent honest matching.
	adversaries := map[graph.NodeID]AdversaryKind{3: AdvCrash, 9: AdvCrash, 15: AdvCrash}
	for seed := uint64(0); seed < 10; seed++ {
		s := randomSystem(t, seed, 20, 0.4, 2)
		honest, _, _ := runStack(t, seed, 0.2, adversaries)
		m := honestMatchingOf(t, s, honest, adversaries)
		if err := m.Validate(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Crashed peers draw proposals that must be revoked by timeout.
		totalRev := 0
		for _, n := range honest {
			totalRev += n.Revocations
		}
		if totalRev == 0 {
			t.Fatalf("seed %d: crashes present but nothing revoked", seed)
		}
	}
}

func TestHardenedStackLossAndSpam(t *testing.T) {
	adversaries := map[graph.NodeID]AdversaryKind{5: AdvSpammer, 12: AdvSpammer}
	for seed := uint64(0); seed < 10; seed++ {
		s := randomSystem(t, seed, 20, 0.4, 2)
		honest, _, _ := runStack(t, seed, 0.25, adversaries)
		m := honestMatchingOf(t, s, honest, adversaries)
		if err := m.Validate(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
