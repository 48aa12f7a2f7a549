package workload

import (
	"fmt"
	"strings"
	"testing"

	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// testSuite is the per-family spec grid the property tests sweep:
// defaults at a small n plus one parameter-heavy variant each.
func testSuite(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, fam := range Families() {
		specs = append(specs, Spec{Family: fam, N: 48})
	}
	for _, in := range []string{
		"swarm:n=48,b=2,swarms=6,joins=3,peers=2,zipf=0.7",
		"geo:n=48,steps=2,sigma=0.15,radius=0.35",
		"drift:n=48,b=2,epochs=3,dsigma=0.5,dims=4,comms=3",
		"hetero:n=48,superfrac=0.15,superb=6",
		"master:n=48,clique=0.4",
		"antilocal:n=47", // remainder path exercises the n mod 4 tail
	} {
		s, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		specs = append(specs, s)
	}
	return specs
}

// fingerprint renders a System bit-exactly: every preference list,
// rank and quota. Two systems with equal fingerprints rank and admit
// identically.
func fingerprint(s *pref.System) string {
	var b strings.Builder
	g := s.Graph()
	fmt.Fprintf(&b, "n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	for i := 0; i < g.NumNodes(); i++ {
		fmt.Fprintf(&b, "%d q=%d l=%v\n", i, s.Quota(i), s.List(i))
	}
	return b.String()
}

func instanceFingerprint(inst *Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec=%s\n", inst.Spec)
	b.WriteString(fingerprint(inst.System))
	for e, sys := range inst.Epochs {
		fmt.Fprintf(&b, "epoch %d\n%s", e, fingerprint(sys))
	}
	fmt.Fprintf(&b, "coords=%v communities=%v supers=%v\n", inst.Coords, inst.Communities, inst.SuperNodes)
	return b.String()
}

// TestBuildValidity: every generated graph is a simple graph (the
// Builder enforces no self-loops/duplicates; re-verified here from the
// CSR view) and every preference system satisfies the §2 model
// invariants (totality, strictness, quota bounds).
func TestBuildValidity(t *testing.T) {
	for _, spec := range testSuite(t) {
		inst, err := Build(spec, 7, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g := inst.System.Graph()
		if g.NumNodes() != inst.Spec.N {
			t.Fatalf("%s: built %d nodes, want %d", spec, g.NumNodes(), inst.Spec.N)
		}
		seen := map[[2]int]bool{}
		for _, e := range g.Edges() {
			if e.U == e.V {
				t.Fatalf("%s: self loop at %d", spec, e.U)
			}
			if e.U > e.V {
				t.Fatalf("%s: non-canonical edge %v", spec, e)
			}
			k := [2]int{e.U, e.V}
			if seen[k] {
				t.Fatalf("%s: duplicate edge %v", spec, e)
			}
			seen[k] = true
		}
		systems := inst.Epochs
		if systems == nil {
			systems = []*pref.System{inst.System}
		}
		for e, sys := range systems {
			if err := sys.Validate(); err != nil {
				t.Fatalf("%s epoch %d: %v", spec, e, err)
			}
			if sys.Graph() != g {
				t.Fatalf("%s epoch %d: epochs must share one contact graph", spec, e)
			}
		}
	}
}

// TestBuildWorkerDeterminism: the workers knob may only change the
// schedule, never the instance — bit-identical output for workers
// 1, 2 and 8 (the satellite's required sweep).
func TestBuildWorkerDeterminism(t *testing.T) {
	for _, spec := range testSuite(t) {
		var base string
		for _, workers := range []int{1, 2, 8} {
			inst, err := Build(spec, 99, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec, workers, err)
			}
			fp := instanceFingerprint(inst)
			if workers == 1 {
				base = fp
			} else if fp != base {
				t.Fatalf("%s: instance differs between workers=1 and workers=%d", spec, workers)
			}
		}
	}
}

// TestBuildSeedReplay: one seed, one instance — and distinct seeds
// must not collide (on the randomized families).
func TestBuildSeedReplay(t *testing.T) {
	for _, spec := range testSuite(t) {
		a, err := Build(spec, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		b, err := Build(spec, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if instanceFingerprint(a) != instanceFingerprint(b) {
			t.Fatalf("%s: same seed built different instances", spec)
		}
		if spec.Family == "antilocal" {
			continue // fully deterministic by design: seeds cannot differ
		}
		c, err := Build(spec, 4, 2)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if instanceFingerprint(a) == instanceFingerprint(c) {
			t.Fatalf("%s: seeds 3 and 4 built identical instances", spec)
		}
	}
}

// TestDriftEpochsConsistent: drift re-ranks but never rewires — every
// epoch is a total strict ranking of the same neighborhoods, drift
// actually changes some ranking across the run, and Instance.System is
// the final epoch.
func TestDriftEpochsConsistent(t *testing.T) {
	spec, err := Parse("drift:n=64,epochs=4,dsigma=0.6,dims=4")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Build(spec, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Epochs) != 4 {
		t.Fatalf("built %d epochs, want 4", len(inst.Epochs))
	}
	if inst.Epochs[len(inst.Epochs)-1] != inst.System {
		t.Fatal("Instance.System must be the final epoch")
	}
	if len(inst.Communities) != 64 {
		t.Fatalf("communities sized %d, want 64", len(inst.Communities))
	}
	changed := false
	for e, sys := range inst.Epochs {
		if err := sys.Validate(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if e > 0 && fingerprint(sys) != fingerprint(inst.Epochs[e-1]) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("dsigma=0.6 drift never changed any ranking across 4 epochs")
	}
}

// TestHeteroQuotas: supernodes carry the superb quota (clamped by
// degree), leaves the leaf quota.
func TestHeteroQuotas(t *testing.T) {
	spec, err := Parse("hetero:n=96,b=2,superfrac=0.1,superb=7")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Build(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 9; len(inst.SuperNodes) != want { // int(0.1*96) = 9
		t.Fatalf("%d supernodes, want %d", len(inst.SuperNodes), want)
	}
	super := map[int]bool{}
	for _, u := range inst.SuperNodes {
		super[u] = true
	}
	g := inst.System.Graph()
	for i := 0; i < g.NumNodes(); i++ {
		want := 2
		if super[i] {
			want = 7
		}
		if d := g.Degree(i); d < want {
			want = d // pref clamps quotas to the degree
		}
		if q := inst.System.Quota(i); q != want {
			t.Fatalf("node %d (super=%v, deg=%d): quota %d, want %d", i, super[i], g.Degree(i), q, want)
		}
	}
}

// TestAntilocalGadgetRatio: the adversarial gadget must realize the
// Lemma 1 / Theorem 2 tightness shape — LIC matches only the middle
// edge of each 4-path (weight 2) while the optimum takes both outer
// edges (weight 3).
func TestAntilocalGadgetRatio(t *testing.T) {
	spec := Spec{Family: "antilocal", N: 40} // 10 gadgets
	inst, err := Build(spec, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := inst.System
	tbl := satisfaction.NewTable(sys)
	lic := matching.LIC(sys, tbl)
	if got, want := lic.Weight(sys), 2.0*10; got != want {
		t.Fatalf("LIC weight %v, want %v (middle edges only)", got, want)
	}
	if got, want := lic.Size(), 10; got != want {
		t.Fatalf("LIC size %d, want %d", got, want)
	}
	// The optimum — both outer edges per gadget — weighs 3 per gadget.
	opt := matching.NewDense(sys.Graph())
	for k := 0; k < 10; k++ {
		opt.Add(4*k, 4*k+1)
		opt.Add(4*k+2, 4*k+3)
	}
	if got, want := opt.Weight(sys), 3.0*10; got != want {
		t.Fatalf("handcrafted optimum weighs %v, want %v", got, want)
	}
}
