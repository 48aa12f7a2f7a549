package workload

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
)

var (
	syntheticTopologies = []string{"gnp", "gnm", "geometric", "ba", "ws", "ring", "grid", "complete", "star", "tree"}
	syntheticMetrics    = []string{"random", "symmetric", "distance", "resource", "transactions"}
)

// TestSyntheticFingerprints pins the parts of the recipe the golden
// experiments file never builds — the ws, grid, complete, tree, star
// and gnm topologies, and the resource and transactions metrics off
// the geometric topology — so the CLI-only instances cannot drift
// silently. The hash covers every preference list and quota.
func TestSyntheticFingerprints(t *testing.T) {
	for _, tc := range []struct {
		spec  Synthetic
		edges int
		hash  string
	}{
		{Synthetic{Topology: "ws", N: 60, B: 3, Metric: "random", Seed: 5}, 180, "e615e5580b9bb4fb"},
		{Synthetic{Topology: "ws", N: 60, B: 2, Metric: "symmetric", Seed: 6, K: 4, Beta: 0.5}, 120, "b902b548cd5a9ed3"},
		{Synthetic{Topology: "grid", N: 55, B: 2, Metric: "random", Seed: 5}, 94, "dcd9e7b35d91ed82"},
		{Synthetic{Topology: "grid", N: 48, B: 2, Metric: "random", Seed: 5, Rows: 6}, 82, "0dcc6bd129f51e37"},
		{Synthetic{Topology: "complete", N: 12, B: 3, Metric: "random", Seed: 5}, 66, "a2ed5649450eedaa"},
		{Synthetic{Topology: "tree", N: 60, B: 2, Metric: "resource", Seed: 5}, 59, "2f63cca4ac66d3e6"},
		{Synthetic{Topology: "star", N: 30, B: 3, Metric: "random", Seed: 5}, 29, "6b40f089a314218d"},
		{Synthetic{Topology: "gnm", N: 60, B: 3, Metric: "random", Seed: 5}, 240, "73b0ea2c668d3193"},
		{Synthetic{Topology: "gnm", N: 60, B: 3, Metric: "transactions", Seed: 7, Edges: 100}, 100, "06b1fa31fc470ce6"},
		{Synthetic{Topology: "ws", N: 60, B: 3, Metric: "transactions", Seed: 5}, 180, "654d5a030173b45f"},
	} {
		sys, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint(sys))))[:16]
		if m := sys.Graph().NumEdges(); m != tc.edges || got != tc.hash {
			t.Errorf("%+v: %d edges, hash %s; want %d edges, hash %s", tc.spec, m, got, tc.edges, tc.hash)
		}
	}
}

// TestSyntheticStreamSplit: the graph draws from the seed's first
// split and the metric from its second, also on topologies that draw
// nothing, and the zero shape parameters are the documented defaults.
func TestSyntheticStreamSplit(t *testing.T) {
	const n, seed = 40, 9
	src := rng.New(seed)
	src.Split()
	want, err := pref.Build(gen.Ring(n), pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Synthetic{Topology: "ring", N: n, B: 2, Metric: "random", Seed: seed}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatal("ring's metric does not draw from the seed's second split")
	}
	for _, pair := range [][2]Synthetic{
		{{Topology: "gnp"}, {Topology: "gnp", P: 8.0 / (n - 1)}},
		{{Topology: "geometric"}, {Topology: "geometric", Radius: 1.6 / sqrtNewton(n)}},
		{{Topology: "ba"}, {Topology: "ba", M: 4}},
		{{Topology: "ws"}, {Topology: "ws", K: 6, Beta: 0.2}},
		{{Topology: "grid"}, {Topology: "grid", Rows: 10}},
		{{Topology: "gnm"}, {Topology: "gnm", Edges: 4 * n}},
	} {
		var fps [2]string
		for i, s := range pair {
			s.N, s.B, s.Metric, s.Seed = n, 2, "distance", seed
			sys, err := s.Build()
			if err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			fps[i] = fingerprint(sys)
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: zero shape parameters differ from the documented defaults %+v", pair[0].Topology, pair[1])
		}
	}
}

// TestSyntheticSmallInstancesBuild: every topology × metric builds at
// the smallest sizes, where the defaults clamp, and with shape
// parameters at their bounds — Validate accepting a spec means Build
// neither fails nor panics.
func TestSyntheticSmallInstancesBuild(t *testing.T) {
	for _, topo := range syntheticTopologies {
		for _, metric := range syntheticMetrics {
			for n := 0; n <= 9; n++ {
				pairs := n * (n - 1) / 2
				for _, s := range []Synthetic{
					{},
					{P: 1, Radius: 2, M: n, K: n / 2 * 2, Beta: 1, Rows: n, Edges: pairs},
					{B: n, M: 1, K: 2, Rows: 1, Edges: 1},
				} {
					s.Topology, s.Metric, s.N, s.Seed = topo, metric, n, uint64(n)
					if s.Validate() != nil {
						continue
					}
					sys, err := s.Build()
					if err != nil {
						t.Fatalf("%+v: %v", s, err)
					}
					if got := sys.Graph().NumNodes(); got != n {
						t.Fatalf("%+v: %d nodes", s, got)
					}
				}
			}
		}
	}
}

// TestSyntheticValidateBoundsSize: one over-size spec per topology (and
// the transactions history) fails Validate before anything is
// allocated, while the largest default-degree instances still pass.
func TestSyntheticValidateBoundsSize(t *testing.T) {
	const big = 1 << 20
	for _, tc := range []struct {
		spec Synthetic
		want string
	}{
		{Synthetic{Topology: "gnp", N: big, P: 1}, "cap"},
		{Synthetic{Topology: "gnm", N: big, Edges: 1 << 30}, "cap"},
		{Synthetic{Topology: "geometric", N: big, Radius: 2}, "cap"},
		{Synthetic{Topology: "ba", N: big, M: 64}, "cap"},
		{Synthetic{Topology: "ws", N: big, K: 64}, "cap"},
		{Synthetic{Topology: "ring", N: big + 1}, "outside"},
		{Synthetic{Topology: "grid", N: big + 1}, "outside"},
		{Synthetic{Topology: "complete", N: 8192}, "cap"},
		{Synthetic{Topology: "star", N: big + 1}, "outside"},
		{Synthetic{Topology: "tree", N: big + 1}, "outside"},
		{Synthetic{Topology: "gnp", N: 1<<12 + 1, Metric: "transactions"}, "history"},
	} {
		if tc.spec.Metric == "" {
			tc.spec.Metric = "random"
		}
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate = %v, want an error mentioning %q", tc.spec, err, tc.want)
		}
	}
	for _, s := range []Synthetic{
		{Topology: "gnp", N: big, Metric: "random"},
		{Topology: "geometric", N: big, Metric: "distance"},
		{Topology: "ba", N: big, Metric: "random"},
		{Topology: "ws", N: big, Metric: "random"},
		{Topology: "complete", N: 5000, Metric: "random"},
		{Topology: "gnp", N: 1 << 12, Metric: "transactions"},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: Validate = %v, want nil", s, err)
		}
	}
}

// TestSyntheticValidateRejects covers names and shape ranges.
func TestSyntheticValidateRejects(t *testing.T) {
	ok := Synthetic{Topology: "gnp", N: 20, B: 2, Metric: "random"}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Synthetic){
		"topology": func(s *Synthetic) { s.Topology = "hypercube" },
		"metric":   func(s *Synthetic) { s.Metric = "karma" },
		"n":        func(s *Synthetic) { s.N = -1 },
		"b":        func(s *Synthetic) { s.B = -1 },
		"p":        func(s *Synthetic) { s.P = 1.5 },
		"radius":   func(s *Synthetic) { s.Radius = -1 },
		"m":        func(s *Synthetic) { s.M = 21 },
		"k":        func(s *Synthetic) { s.K = 5 },
		"beta":     func(s *Synthetic) { s.Beta = 2 },
		"rows":     func(s *Synthetic) { s.Rows = 21 },
		"edges":    func(s *Synthetic) { s.Edges = 191 },
	} {
		s := ok
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("%s: %+v validated", name, s)
		}
	}
}

// TestOracleGNP pins the oracle recipe: the graph draws from the seed's
// own stream and the metric from the first split after it.
func TestOracleGNP(t *testing.T) {
	src := rng.New(3)
	g := gen.GNP(src, 10, 0.4)
	want, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := OracleGNP(3, 10, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatal("OracleGNP drifted from its recipe")
	}
}

// TestBindFlags: the flags bind only the named shapes, default to the
// documented instance, and parse into the spec's fields.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := BindFlags(fs, 7, "k", "beta")
	if want := (Synthetic{Topology: "gnp", N: 7, B: 3, Metric: "random", Seed: 1}); *s != want {
		t.Fatalf("defaults %+v, want %+v", *s, want)
	}
	if err := fs.Parse(strings.Fields("-topology ws -n 60 -b 2 -metric resource -seed 9 -k 4 -beta 0.5")); err != nil {
		t.Fatal(err)
	}
	if want := (Synthetic{Topology: "ws", N: 60, B: 2, Metric: "resource", Seed: 9, K: 4, Beta: 0.5}); *s != want {
		t.Fatalf("parsed %+v, want %+v", *s, want)
	}
	if fs.Parse([]string{"-p", "0.1"}) == nil {
		t.Fatal("-p bound though not named")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown shape flag bound")
		}
	}()
	BindFlags(flag.NewFlagSet("t", flag.ContinueOnError), 7, "q")
}
