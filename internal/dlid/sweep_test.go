package dlid

import (
	"testing"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// TestChurnSweep drives the full protocol across many deterministic
// workloads and schedules; Run verifies quiescence, symmetry,
// feasibility and live-subgraph maximality on each. This sweep caught
// two real protocol bugs during development (a stale crossing-lock and
// the mutual-decline maximality hole), so it stays.
func TestChurnSweep(t *testing.T) {
	seeds := uint64(3000)
	if testing.Short() {
		seeds = 300
	}
	for seed := uint64(0); seed < seeds; seed++ {
		n := int(seed%25) + 6
		b := int(seed%3) + 1
		s := randomSystem(t, seed*2654435761+17, n, 0.4, b)
		tbl := satisfaction.NewTable(s)
		schedule := Schedule(s, rng.New(seed^0xd11d), 15, 50, 0.5, n/3)
		_, err := RunSelfHeal(s, tbl, SelfHealConfig{}, schedule, simnet.Options{
			Seed:    seed,
			Latency: simnet.ExponentialLatency(0.5),
		})
		if err != nil {
			t.Fatalf("seed=%d n=%d b=%d: %v", seed, n, b, err)
		}
	}
}
