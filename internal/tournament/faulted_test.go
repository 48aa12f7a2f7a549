package tournament

import (
	"testing"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/workload"
)

// TestFaultedBracketValidity sweeps the faulted axis: every
// fault-tolerant contender on every default scenario under a seeded
// healing crash window with the reliable transport stacked
// underneath. Gates: every cell completes, produces a valid matching,
// and LID — whose repair waves resynchronize after the window heals —
// still ends stable (zero blocking pairs) with the full LIC weight on
// the non-adversarial families.
func TestFaultedBracketValidity(t *testing.T) {
	specs := workload.DefaultSuite(40)
	for seed := uint64(1); seed <= 3; seed++ {
		fs := faults.Spec{Crashes: []faults.Crash{
			{Start: 3, End: 25, Node: int(seed % 7)},
			{Start: 10, End: 30, Node: 11 + int(seed%5)},
		}}
		if err := fs.Validate(); err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Seed:       seed,
			Faults:     fs,
			FaultsSeed: seed * 77,
			Stack:      stack.Spec{Reliable: reliable.Config{RTO: 15, Adaptive: true}},
		}
		results, err := RunBracket(specs, FaultTolerantAlgorithms(), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, res := range results {
			for _, cell := range res.Cells {
				if cell.WeightFrac < 0 || cell.WeightFrac > 1+1e-9 {
					t.Errorf("seed %d %s/%s: weight frac %v out of range",
						seed, cell.Scenario, cell.Algorithm, cell.WeightFrac)
				}
				if cell.Algorithm == "lid" && !res.Spec.Adversarial() {
					if cell.BlockingPairs != 0 {
						t.Errorf("seed %d %s/lid: %d blocking pairs after heal",
							seed, cell.Scenario, cell.BlockingPairs)
					}
					if cell.WeightFrac != 1 {
						t.Errorf("seed %d %s/lid: weight frac %v != 1",
							seed, cell.Scenario, cell.WeightFrac)
					}
				}
			}
		}
	}
}

// TestGSRefusesFaultedCells pins the contract that Gale–Shapley, whose
// FSM requires per-link FIFO delivery, declines faulted configurations
// with a clear error instead of corrupting its state machine.
func TestGSRefusesFaultedCells(t *testing.T) {
	specs := workload.DefaultSuite(16)[:1]
	inst, err := workload.Build(specs[0], 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Seed: 1, Faults: faults.Spec{Delay: 0.1, DelayScale: 2}},
		{Seed: 1, Stack: stack.Spec{Reliable: reliable.Config{RTO: 15, Adaptive: true}}},
	} {
		if _, _, err = RunCell(inst, GaleShapley{}, opts); err == nil {
			t.Fatalf("gs accepted a faulted cell: %+v", opts)
		}
	}
}
