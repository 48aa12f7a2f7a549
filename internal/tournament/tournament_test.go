package tournament

import (
	"encoding/json"
	"fmt"
	"testing"

	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/workload"
)

func buildSuite(t *testing.T, n int, workers int) []*workload.Instance {
	t.Helper()
	var insts []*workload.Instance
	for _, spec := range workload.DefaultSuite(n) {
		inst, err := workload.Build(spec, InstanceSeed(42, spec), workers)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		insts = append(insts, inst)
	}
	return insts
}

// TestLIDCellEquivalence: the LID row of every bracket cell must be
// the very same execution a standalone lid.RunEvent performs — equal
// matching AND equal per-kind message counts, on every scenario
// family. Probing must not perturb the run.
func TestLIDCellEquivalence(t *testing.T) {
	for _, inst := range buildSuite(t, 64, 2) {
		cell, out, err := RunCell(inst, LID{}, Options{Seed: 7, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", inst.Spec, err)
		}
		tbl := satisfaction.NewTable(inst.System)
		ref, err := lid.RunEvent(inst.System, tbl, simnet.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s standalone: %v", inst.Spec, err)
		}
		if !out.Matching.Equal(ref.Matching) {
			t.Fatalf("%s: bracket LID matching differs from standalone run", inst.Spec)
		}
		if got, want := cell.MsgsByKind["PROP"], ref.PropMessages; got != want {
			t.Fatalf("%s: bracket LID sent %d PROP, standalone %d", inst.Spec, got, want)
		}
		if got, want := cell.MsgsByKind["REJ"], ref.RejMessages; got != want {
			t.Fatalf("%s: bracket LID sent %d REJ, standalone %d", inst.Spec, got, want)
		}
		if cell.WeightFrac != 1 {
			t.Fatalf("%s: LID weight fraction %v, want exactly 1 (LID = LIC)", inst.Spec, cell.WeightFrac)
		}
	}
}

// blockingPairs recomputes the stability measure from scratch — an
// oracle independent of the sampler plumbing the contenders share.
func blockingPairs(t *testing.T, inst *workload.Instance, m *matching.Matching) int {
	t.Helper()
	s := inst.System
	tbl := satisfaction.NewTable(s)
	accepts := func(u, v int) bool {
		conns := m.Connections(u)
		if len(conns) < s.Quota(u) {
			return true
		}
		if s.Quota(u) == 0 {
			return false
		}
		low := tbl.Key(u, conns[0])
		for _, w := range conns[1:] {
			if k := tbl.Key(u, w); low.Heavier(k) {
				low = k
			}
		}
		return tbl.Key(u, v).Heavier(low)
	}
	bp := 0
	for _, e := range s.Graph().Edges() {
		if !m.Has(e.U, e.V) && accepts(e.U, e.V) && accepts(e.V, e.U) {
			bp++
		}
	}
	return bp
}

// TestGSStableOracle: on small random systems across 200 seeds, the
// distributed Gale–Shapley contender must terminate in a matching with
// zero blocking pairs under the shared weight order — and since all
// preference lists follow one total order, the stable matching is
// unique and equals LIC.
func TestGSStableOracle(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		n := 4 + int(seed%9) // 4..12 nodes
		spec := workload.Spec{Family: "master", N: n, B: 1 + int(seed%3), Clique: 0.5}
		inst, err := workload.Build(spec, seed, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, out, err := RunCell(inst, GaleShapley{}, Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d (n=%d): %v", seed, n, err)
		}
		if bp := blockingPairs(t, inst, out.Matching); bp != 0 {
			t.Fatalf("seed %d (n=%d): GS left %d blocking pairs", seed, n, bp)
		}
		tbl := satisfaction.NewTable(inst.System)
		lic := matching.LIC(inst.System, tbl)
		if !out.Matching.Equal(lic) {
			t.Fatalf("seed %d (n=%d): GS matching differs from LIC, the unique stable matching", seed, n)
		}
	}
}

// TestGSMatchesLICOnSuite: the oracle result carries to the full-size
// scenario families — GS converges to the same unique stable matching
// LID locks, just along a different message trajectory.
func TestGSMatchesLICOnSuite(t *testing.T) {
	for _, inst := range buildSuite(t, 64, 2) {
		cell, out, err := RunCell(inst, GaleShapley{}, Options{Seed: 7, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", inst.Spec, err)
		}
		tbl := satisfaction.NewTable(inst.System)
		lic := matching.LIC(inst.System, tbl)
		if !out.Matching.Equal(lic) {
			t.Fatalf("%s: GS matching differs from LIC", inst.Spec)
		}
		if cell.BlockingPairs != 0 {
			t.Fatalf("%s: GS cell reports %d blocking pairs at termination", inst.Spec, cell.BlockingPairs)
		}
	}
}

// TestBPSubsetOfLIC: every edge the one-round heuristic keeps is
// mutually top-quota, hence part of the locally-heaviest matching —
// BP ⊆ LIC on every scenario, so its weight fraction is ≤ 1.
func TestBPSubsetOfLIC(t *testing.T) {
	for _, inst := range buildSuite(t, 64, 2) {
		cell, out, err := RunCell(inst, BackupPlacement{}, Options{Seed: 7, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", inst.Spec, err)
		}
		tbl := satisfaction.NewTable(inst.System)
		lic := matching.LIC(inst.System, tbl)
		for _, e := range out.Matching.Edges() {
			if !lic.Has(e.U, e.V) {
				t.Fatalf("%s: BP kept %v which is not in LIC", inst.Spec, e)
			}
		}
		if cell.WeightFrac > 1 {
			t.Fatalf("%s: BP weight fraction %v > 1", inst.Spec, cell.WeightFrac)
		}
		if got, want := cell.Msgs, int64(cell.MsgsByKind["PROP"]); got != want {
			t.Fatalf("%s: BP cumulative msgs %d, stats say %d", inst.Spec, got, want)
		}
	}
}

// TestBracketDeterminism: the full bracket must be byte-identical
// across worker counts and across repeat runs — the reproducibility
// bar every experiment in this repo meets.
func TestBracketDeterminism(t *testing.T) {
	specs := workload.DefaultSuite(48)
	render := func(workers int) string {
		results, err := RunBracket(specs, DefaultAlgorithms(), Options{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var cells []Cell
		for _, r := range results {
			cells = append(cells, r.Cells...)
		}
		b, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != base {
			t.Fatalf("bracket output differs between workers=1 and workers=%d", workers)
		}
	}
	if got := render(1); got != base {
		t.Fatal("bracket output differs between repeat runs")
	}
}

// TestBracketScoring: structural guarantees of the ranked tables —
// every scenario ranks all contenders 1..k, LID wins or ties the
// weight fraction on every non-adversarial scenario, and the
// stability/cost columns are populated for every cell.
func TestBracketScoring(t *testing.T) {
	specs := workload.DefaultSuite(48)
	results, err := RunBracket(specs, DefaultAlgorithms(), Options{Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d scenario results for %d specs", len(results), len(specs))
	}
	for _, r := range results {
		if len(r.Cells) != 3 {
			t.Fatalf("%s: %d cells, want 3", r.Spec, len(r.Cells))
		}
		var lidCell *Cell
		for i := range r.Cells {
			c := &r.Cells[i]
			if c.Rank != i+1 {
				t.Fatalf("%s: cell %d has rank %d", r.Spec, i, c.Rank)
			}
			if c.Algorithm == "lid" {
				lidCell = c
			}
			if len(c.RoundsToEps) != len(obs.Epsilons) {
				t.Fatalf("%s/%s: rounds-to-eps has %d entries, want %d", r.Spec, c.Algorithm, len(c.RoundsToEps), len(obs.Epsilons))
			}
			for _, eps := range obs.Epsilons {
				if _, ok := c.RoundsToEps[obs.EpsKey(eps)]; !ok {
					t.Fatalf("%s/%s: rounds-to-eps misses key %s", r.Spec, c.Algorithm, obs.EpsKey(eps))
				}
			}
			if c.Msgs <= 0 || c.Bytes <= 0 {
				t.Fatalf("%s/%s: message accounting empty (msgs=%d bytes=%d)", r.Spec, c.Algorithm, c.Msgs, c.Bytes)
			}
			if c.LICWeight <= 0 {
				t.Fatalf("%s/%s: LIC weight %v", r.Spec, c.Algorithm, c.LICWeight)
			}
		}
		if lidCell == nil {
			t.Fatalf("%s: no LID cell", r.Spec)
		}
		for _, c := range r.Cells {
			if !r.Spec.Adversarial() && c.WeightFrac > lidCell.WeightFrac {
				t.Fatalf("%s: %s weight fraction %v beats LID's %v on a non-adversarial scenario",
					r.Spec, c.Algorithm, c.WeightFrac, lidCell.WeightFrac)
			}
		}
	}
}

// TestInstanceSeedStable pins the seed derivation: reordering the
// scenario list must never change any scenario's instance.
func TestInstanceSeedStable(t *testing.T) {
	a := workload.Spec{Family: "swarm", N: 64}
	b := workload.Spec{Family: "geo", N: 64}
	if InstanceSeed(1, a) == InstanceSeed(1, b) {
		t.Fatal("distinct specs derived the same instance seed")
	}
	if InstanceSeed(1, a) != InstanceSeed(1, a) {
		t.Fatal("instance seed not stable")
	}
	if InstanceSeed(1, a) == InstanceSeed(2, a) {
		t.Fatal("master seed ignored by derivation")
	}
}

// TestSamplerMatchesLIDSampler: on a probed LID run, the stability
// sampler fed with the final matching must agree with the cell's final
// probe over the nodes' locks — same blocking pairs (zero), same
// matched weight.
func TestSamplerMatchesLIDSampler(t *testing.T) {
	inst, err := workload.Build(workload.Spec{Family: "hetero", N: 64}, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	cell, out, err := RunCell(inst, LID{}, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(inst.System)
	sampler := obs.StabilitySampler(inst.System, tbl, out.Matching.Has)
	smp := sampler(0)
	if smp.BlockingPairs != cell.BlockingPairs {
		t.Fatalf("sampler over the matching found %d blocking pairs, cell %d", smp.BlockingPairs, cell.BlockingPairs)
	}
	if smp.MatchedWeight != cell.MatchedWeight {
		t.Fatalf("sampler over the matching weighs %v, cell %v", smp.MatchedWeight, cell.MatchedWeight)
	}
	if fmt.Sprintf("%.6f", cell.WeightFrac) != "1.000000" {
		t.Fatalf("LID weight fraction %v", cell.WeightFrac)
	}
}
