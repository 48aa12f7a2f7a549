// Package workload builds the instances the algorithms run on, in two
// kinds.
//
// Synthetic is the instance recipe of the experiment suite, of the
// overlaysim, overlaynode and graphgen instance flags, and of fault
// replay files: one generator topology × one suitability metric from a
// single seed (see Synthetic).
//
// The rest of the package is the production-shaped scenario suite:
// seeded, replayable generators for the overlay populations the paper's
// introduction motivates but the synthetic topologies only approximate.
// Each scenario is described by a Spec — a family name plus typed
// parameters — with a canonical flag-friendly string form
// ("swarm:n=512,zipf=1.4") that round-trips through Parse/String the
// way faults.Spec does, so a tournament cell and a tournament CLI
// invocation name the same instance the same way.
//
// Families:
//
//	swarm     trace-driven content swarms: nodes join Zipf-popular
//	          swarms, per-swarm rings plus random chords; preferences
//	          mix shared-swarm overlap, capacity and private noise.
//	geo       geographic overlay with a mobility step: the contact
//	          graph is the union of geometric graphs along a reflected
//	          random walk; preferences are distance at the final
//	          positions.
//	drift     interest communities whose vectors drift over epochs: an
//	          SBM contact graph with cosine-similarity preferences,
//	          re-ranked once per epoch (Instance.Epochs).
//	hetero    supernode/leaf capacity split: preferential-attachment
//	          graph, top-degree fraction gets the supernode quota,
//	          preferences follow degree-correlated capacity.
//	master    adversarial master-list collusion: one global score list
//	          plus a colluding clique that ranks fellow members above
//	          every honest node.
//	antilocal adversarial anti-locally-heaviest gadget chains: disjoint
//	          paths whose middle edge is locally heaviest, the Lemma 1 /
//	          Theorem 2 tightness shape (LIC weight = 2/3·OPT), quota 1.
//
// Every generator is deterministic given (Spec, seed) and bit-identical
// for any worker count: randomness is drawn from rng streams derived
// only from the seed, and the parallel preference build only ever uses
// concurrency-safe value metrics (precomputed arrays), never the
// memoizing random metrics.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"overlaymatch/internal/kv"
)

// Spec names one scenario: a family plus its parameters. The zero
// value of every parameter means "use the family default" (resolved at
// Build time via Resolved), so a bare family name is a valid spec and
// String omits defaulted fields.
type Spec struct {
	// Family is one of Families().
	Family string
	// N is the node count (key "n"; default 256).
	N int
	// B is the connection quota (key "b"; default 3; hetero leaves
	// default 2; antilocal forces 1).
	B int

	// Swarms, Joins, Peers and Zipf parameterize the swarm family:
	// number of swarms (default max(4, n/16)), swarms joined per node
	// (default 2), random chords added per member per swarm (default
	// 4), and the Zipf popularity exponent (default 1.2).
	Swarms int
	Joins  int
	Peers  int
	Zipf   float64

	// Steps, Sigma and Radius parameterize the geo family: mobility
	// steps (default 4), per-step Gaussian displacement (default 0.05)
	// and the contact radius (default 1.6/√n).
	Steps  int
	Sigma  float64
	Radius float64

	// Epochs, DriftSigma (key "dsigma"), Dims and Comms parameterize
	// the drift family: number of re-ranked epochs (default 4),
	// per-epoch Gaussian drift of each interest vector (default 0.15),
	// interest dimensionality (default 8) and community count (default
	// max(2, n/32)).
	Epochs     int
	DriftSigma float64
	Dims       int
	Comms      int

	// SuperFrac (key "superfrac") and SuperB (key "superb")
	// parameterize the hetero family: fraction of nodes promoted to
	// supernodes (default 0.05, at least one) and their quota (default
	// 8); B is the leaf quota.
	SuperFrac float64
	SuperB    int

	// Clique parameterizes the master family: the fraction of nodes in
	// the colluding clique (default 0.25).
	Clique float64
}

// Families returns the scenario family names in canonical order.
func Families() []string {
	return []string{"swarm", "geo", "drift", "hetero", "master", "antilocal"}
}

// Adversarial reports whether the family is one of the adversarial
// preference distributions (master-list collusion, anti-locally-
// heaviest gadgets) — the scenarios the tournament's "LID wins or
// ties" guard exempts.
func (s Spec) Adversarial() bool {
	return s.Family == "master" || s.Family == "antilocal"
}

// field describes one grammar key: its name, which families accept it,
// and accessors. Floats and ints share the table; Int fields use Get/
// Set through float64 without loss (all int fields are small counts).
type field struct {
	key      string
	families string // space-separated family list, "*" = all
	isInt    bool
	get      func(*Spec) float64
	set      func(*Spec, float64)
}

// fields is the canonical key order of the string form.
var fields = []field{
	{"n", "*", true, func(s *Spec) float64 { return float64(s.N) }, func(s *Spec, v float64) { s.N = int(v) }},
	{"b", "*", true, func(s *Spec) float64 { return float64(s.B) }, func(s *Spec, v float64) { s.B = int(v) }},
	{"swarms", "swarm", true, func(s *Spec) float64 { return float64(s.Swarms) }, func(s *Spec, v float64) { s.Swarms = int(v) }},
	{"joins", "swarm", true, func(s *Spec) float64 { return float64(s.Joins) }, func(s *Spec, v float64) { s.Joins = int(v) }},
	{"peers", "swarm", true, func(s *Spec) float64 { return float64(s.Peers) }, func(s *Spec, v float64) { s.Peers = int(v) }},
	{"zipf", "swarm", false, func(s *Spec) float64 { return s.Zipf }, func(s *Spec, v float64) { s.Zipf = v }},
	{"steps", "geo", true, func(s *Spec) float64 { return float64(s.Steps) }, func(s *Spec, v float64) { s.Steps = int(v) }},
	{"sigma", "geo", false, func(s *Spec) float64 { return s.Sigma }, func(s *Spec, v float64) { s.Sigma = v }},
	{"radius", "geo", false, func(s *Spec) float64 { return s.Radius }, func(s *Spec, v float64) { s.Radius = v }},
	{"epochs", "drift", true, func(s *Spec) float64 { return float64(s.Epochs) }, func(s *Spec, v float64) { s.Epochs = int(v) }},
	{"dsigma", "drift", false, func(s *Spec) float64 { return s.DriftSigma }, func(s *Spec, v float64) { s.DriftSigma = v }},
	{"dims", "drift", true, func(s *Spec) float64 { return float64(s.Dims) }, func(s *Spec, v float64) { s.Dims = int(v) }},
	{"comms", "drift", true, func(s *Spec) float64 { return float64(s.Comms) }, func(s *Spec, v float64) { s.Comms = int(v) }},
	{"superfrac", "hetero", false, func(s *Spec) float64 { return s.SuperFrac }, func(s *Spec, v float64) { s.SuperFrac = v }},
	{"superb", "hetero", true, func(s *Spec) float64 { return float64(s.SuperB) }, func(s *Spec, v float64) { s.SuperB = int(v) }},
	{"clique", "master", false, func(s *Spec) float64 { return s.Clique }, func(s *Spec, v float64) { s.Clique = v }},
}

func (f field) applies(family string) bool {
	if f.families == "*" {
		return true
	}
	for _, fam := range strings.Fields(f.families) {
		if fam == family {
			return true
		}
	}
	return false
}

func knownFamily(name string) bool {
	for _, f := range Families() {
		if f == name {
			return true
		}
	}
	return false
}

// maxN bounds the node count the grammar accepts: big enough for every
// benchmark, small enough that a fuzzed spec cannot ask Build for an
// allocation bomb.
const maxN = 10_000_000

// Validate checks the family name, that every non-default field is
// applicable to the family, and parameter ranges. Parse output always
// validates; Build validates again as its first step.
func (s Spec) Validate() error {
	if !knownFamily(s.Family) {
		return fmt.Errorf("workload: unknown family %q (want one of %s)", s.Family, strings.Join(Families(), "|"))
	}
	for _, f := range fields {
		v := f.get(&s)
		if v == 0 {
			continue
		}
		if !f.applies(s.Family) {
			return fmt.Errorf("workload: key %q does not apply to family %q", f.key, s.Family)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("workload: %s=%v invalid", f.key, v)
		}
	}
	if s.N > maxN {
		return fmt.Errorf("workload: n=%d above the %d ceiling", s.N, maxN)
	}
	for _, p := range []struct {
		key string
		v   float64
	}{{"zipf", s.Zipf}, {"dsigma", s.DriftSigma}} {
		if p.v > 16 {
			return fmt.Errorf("workload: %s=%v above 16", p.key, p.v)
		}
	}
	for _, p := range []struct {
		key string
		v   float64
	}{{"sigma", s.Sigma}, {"radius", s.Radius}, {"superfrac", s.SuperFrac}, {"clique", s.Clique}} {
		if p.v > 1.5 {
			return fmt.Errorf("workload: %s=%v above 1.5", p.key, p.v)
		}
	}
	for _, p := range []struct {
		key string
		v   int
	}{{"b", s.B}, {"swarms", s.Swarms}, {"joins", s.Joins}, {"peers", s.Peers},
		{"steps", s.Steps}, {"epochs", s.Epochs}, {"dims", s.Dims}, {"comms", s.Comms}, {"superb", s.SuperB}} {
		if p.v > 1_000_000 {
			return fmt.Errorf("workload: %s=%d above the 1000000 ceiling", p.key, p.v)
		}
	}
	if s.Family == "antilocal" && s.B > 1 {
		return fmt.Errorf("workload: antilocal forces b=1, got b=%d", s.B)
	}
	return nil
}

// String renders the canonical spec string: the family name, then
// ":key=value,..." with keys in fixed grammar order and defaulted
// (zero) fields omitted. A fully defaulted spec renders as the bare
// family name. Parse(s.String()) reproduces s for any valid spec.
func (s Spec) String() string {
	var parts []string
	for _, f := range fields {
		v := f.get(&s)
		if v == 0 {
			continue
		}
		if f.isInt {
			parts = append(parts, f.key+"="+strconv.Itoa(int(v)))
		} else {
			parts = append(parts, f.key+"="+kv.FormatFloat(v))
		}
	}
	if len(parts) == 0 {
		return s.Family
	}
	return s.Family + ":" + strings.Join(parts, ",")
}

// Parse builds a Spec from its string form: "family" or
// "family:key=value,..." (package kv's grammar). Unknown families, inapplicable or repeated
// keys, and out-of-range values are errors. The result validates.
func Parse(in string) (Spec, error) {
	var s Spec
	in = strings.TrimSpace(in)
	family, params, hasParams := strings.Cut(in, ":")
	s.Family = strings.TrimSpace(family)
	if !knownFamily(s.Family) {
		return s, fmt.Errorf("workload: unknown family %q (want one of %s)", s.Family, strings.Join(Families(), "|"))
	}
	if hasParams {
		kvs, err := kv.Split("workload", params)
		if err != nil {
			return s, err
		}
		for _, p := range kvs {
			f, ok := lookupField(p.Key)
			if !ok {
				return s, p.Errorf("unknown key")
			}
			if !f.applies(s.Family) {
				return s, fmt.Errorf("workload: key %q does not apply to family %q", p.Key, s.Family)
			}
			if f.isInt {
				iv, err := p.Int()
				if err != nil {
					return s, err
				}
				f.set(&s, float64(iv))
			} else {
				fv, err := p.Float()
				if err != nil {
					return s, err
				}
				f.set(&s, fv)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

func lookupField(key string) (field, bool) {
	for _, f := range fields {
		if f.key == key {
			return f, true
		}
	}
	return field{}, false
}

// Resolved returns the spec with every defaulted (zero) parameter
// replaced by its family default for the resolved node count — the
// exact instance Build constructs. Resolved specs still round-trip
// through Parse/String.
func (s Spec) Resolved() Spec {
	r := s
	if r.N == 0 {
		r.N = 256
	}
	if r.B == 0 {
		switch r.Family {
		case "hetero":
			r.B = 2
		case "antilocal":
			r.B = 1
		default:
			r.B = 3
		}
	}
	switch r.Family {
	case "swarm":
		if r.Swarms == 0 {
			r.Swarms = max(4, r.N/16)
		}
		if r.Joins == 0 {
			r.Joins = 2
		}
		if r.Peers == 0 {
			r.Peers = 4
		}
		if r.Zipf == 0 {
			r.Zipf = 1.2
		}
	case "geo":
		if r.Steps == 0 {
			r.Steps = 4
		}
		if r.Sigma == 0 {
			r.Sigma = 0.05
		}
		if r.Radius == 0 {
			r.Radius = 1.6 / math.Sqrt(math.Max(float64(r.N), 1))
			if r.Radius > 1 {
				r.Radius = 1
			}
		}
	case "drift":
		if r.Epochs == 0 {
			r.Epochs = 4
		}
		if r.DriftSigma == 0 {
			r.DriftSigma = 0.15
		}
		if r.Dims == 0 {
			r.Dims = 8
		}
		if r.Comms == 0 {
			r.Comms = max(2, r.N/32)
		}
	case "hetero":
		if r.SuperFrac == 0 {
			r.SuperFrac = 0.05
		}
		if r.SuperB == 0 {
			r.SuperB = 8
		}
	case "master":
		if r.Clique == 0 {
			r.Clique = 0.25
		}
	case "antilocal":
		r.B = 1
	}
	return r
}

// DefaultSuite returns one defaulted spec per family at node count n
// (0 keeps the family default size) — the scenario axis of the
// tournament bracket.
func DefaultSuite(n int) []Spec {
	var out []Spec
	for _, fam := range Families() {
		out = append(out, Spec{Family: fam, N: n})
	}
	return out
}
