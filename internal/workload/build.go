package workload

import (
	"fmt"
	"math"
	"sort"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
)

// Instance is one built scenario: the preference system the matching
// algorithms run on, plus the family-specific context the generators
// produced along the way.
type Instance struct {
	// Spec is the fully resolved spec (Spec.Resolved of the input).
	Spec Spec
	// System is the preference system of the final state — for drift,
	// the last epoch's ranking.
	System *pref.System
	// Epochs holds one preference system per drift epoch over the same
	// contact graph (Epochs[len-1] == System); nil for other families.
	Epochs []*pref.System
	// Coords are the final node positions of the geo family; nil
	// otherwise.
	Coords [][2]float64
	// Communities maps node -> community for the drift family; nil
	// otherwise.
	Communities []int
	// SuperNodes lists the supernode IDs of the hetero family in
	// ascending order; nil otherwise.
	SuperNodes []graph.NodeID
}

// Build constructs the instance a spec describes. It is deterministic
// given (spec, seed) and bit-identical for any workers value: all
// randomness comes from rng streams derived from seed, and workers
// only parallelizes the preference build (pref.BuildParallel with
// concurrency-safe value metrics).
func Build(spec Spec, seed uint64, workers int) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := spec.Resolved()
	src := rng.New(seed ^ 0x90a7_1ca5_ce4a_71e5)
	var (
		inst *Instance
		err  error
	)
	switch r.Family {
	case "swarm":
		inst, err = buildSwarm(r, src, workers)
	case "geo":
		inst, err = buildGeo(r, src, workers)
	case "drift":
		inst, err = buildDrift(r, src, workers)
	case "hetero":
		inst, err = buildHetero(r, src, workers)
	case "master":
		inst, err = buildMaster(r, src, workers)
	case "antilocal":
		inst, err = buildAntilocal(r, workers)
	default:
		return nil, fmt.Errorf("workload: unknown family %q", r.Family)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: build %s: %w", r, err)
	}
	inst.Spec = r
	return inst, nil
}

// pairNoise is a pure per-ordered-pair jitter in [0, scale): a
// splitmix64 finalizer over (salt, i, j). It keeps value metrics
// strict total orders without the memoizing (non-concurrency-safe)
// random metrics.
func pairNoise(salt uint64, scale float64) func(i, j graph.NodeID) float64 {
	return func(i, j graph.NodeID) float64 {
		z := salt ^ (uint64(i) << 32) ^ uint64(uint32(j))
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return scale * float64(z>>11) / (1 << 53)
	}
}

// buildSwarm: nodes join Zipf-popular swarms; each swarm wires its
// members into a ring plus random chords. Preferences reward
// shared-swarm overlap, then capacity, with a private noise
// tie-breaker.
func buildSwarm(r Spec, src *rng.Source, workers int) (*Instance, error) {
	n := r.N
	joins := min(r.Joins, r.Swarms)
	// Zipf popularity over swarms: weight(s) ∝ (s+1)^-zipf.
	weights := make([]float64, r.Swarms)
	for s := range weights {
		weights[s] = math.Pow(float64(s+1), -r.Zipf)
	}
	membership := make([][]int, n) // node -> sorted swarm IDs
	members := make([][]int, r.Swarms)
	memberSrc := src.Split()
	for i := 0; i < n; i++ {
		joined := make([]int, 0, joins)
		for len(joined) < joins {
			s := memberSrc.WeightedIndex(weights)
			dup := false
			for _, t := range joined {
				if t == s {
					dup = true
					break
				}
			}
			if dup {
				// Deterministic fallback: walk to the next unjoined swarm
				// instead of resampling forever on tiny swarm counts.
				for dup {
					s = (s + 1) % r.Swarms
					dup = false
					for _, t := range joined {
						if t == s {
							dup = true
							break
						}
					}
				}
			}
			joined = append(joined, s)
			members[s] = append(members[s], i)
		}
		sort.Ints(joined)
		membership[i] = joined
	}
	b := graph.NewBuilder(n)
	chordSrc := src.Split()
	for _, m := range members {
		// Ring over the join order, then chords.
		for k := range m {
			if len(m) < 2 {
				break
			}
			b.TryAddEdge(m[k], m[(k+1)%len(m)])
		}
		for _, u := range m {
			for c := 0; c < r.Peers; c++ {
				b.TryAddEdge(u, m[chordSrc.Intn(len(m))])
			}
		}
	}
	g := b.MustGraph()
	capacity := make([]float64, n)
	capSrc := src.Split()
	for i := range capacity {
		capacity[i] = capSrc.Float64()
	}
	noise := pairNoise(src.Uint64(), 1e-3)
	shared := func(i, j graph.NodeID) float64 {
		a, b := membership[i], membership[j]
		count := 0
		for x, y := 0, 0; x < len(a) && y < len(b); {
			switch {
			case a[x] == b[y]:
				count++
				x++
				y++
			case a[x] < b[y]:
				x++
			default:
				y++
			}
		}
		return float64(count)
	}
	metric := pref.MetricFunc(func(i, j graph.NodeID) float64 {
		return 2*shared(i, j) + capacity[j] + noise(i, j)
	})
	sys, err := pref.BuildParallel(g, metric, pref.UniformQuota(r.B), workers)
	if err != nil {
		return nil, err
	}
	return &Instance{System: sys}, nil
}

// buildGeo: a reflected Gaussian random walk moves every node for
// Steps steps; the contact graph is the union of the geometric graphs
// of every snapshot (a link once in range stays known). Preferences
// are distance at the final positions.
func buildGeo(r Spec, src *rng.Source, workers int) (*Instance, error) {
	n := r.N
	pts := make([][2]float64, n)
	posSrc := src.Split()
	for i := range pts {
		pts[i] = [2]float64{posSrc.Float64(), posSrc.Float64()}
	}
	b := graph.NewBuilder(n)
	moveSrc := src.Split()
	for step := 0; step <= r.Steps; step++ {
		gen.AddRadiusEdges(b, pts, r.Radius)
		if step == r.Steps {
			break
		}
		for i := range pts {
			pts[i][0] = reflect01(pts[i][0] + r.Sigma*moveSrc.NormFloat64())
			pts[i][1] = reflect01(pts[i][1] + r.Sigma*moveSrc.NormFloat64())
		}
	}
	g := b.MustGraph()
	sys, err := pref.BuildParallel(g, pref.DistanceMetric{Coords: pts}, pref.UniformQuota(r.B), workers)
	if err != nil {
		return nil, err
	}
	return &Instance{System: sys, Coords: pts}, nil
}

// reflect01 folds x back into [0,1] by reflection at the borders.
func reflect01(x float64) float64 {
	for x < 0 || x > 1 {
		if x < 0 {
			x = -x
		}
		if x > 1 {
			x = 2 - x
		}
	}
	return x
}

// buildDrift: an SBM community graph whose interest vectors drift
// epoch by epoch; each epoch re-ranks the same contact graph, so
// Epochs[e] and Epochs[e+1] differ only in preference order.
func buildDrift(r Spec, src *rng.Source, workers int) (*Instance, error) {
	n, comms := r.N, min(r.Comms, max(r.N, 1))
	sizes := make([]int, comms)
	for c := range sizes {
		sizes[c] = n / comms
		if c < n%comms {
			sizes[c]++
		}
	}
	csize := float64(n) / float64(comms)
	pIn := clamp01(6 / math.Max(csize-1, 1))
	pOut := clamp01(2 / math.Max(float64(n)-csize, 1))
	g, community := gen.SBM(src.Split(), sizes, pIn, pOut)

	base := make([][]float64, comms)
	vecSrc := src.Split()
	for c := range base {
		base[c] = make([]float64, r.Dims)
		for d := range base[c] {
			base[c][d] = vecSrc.NormFloat64()
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, r.Dims)
		for d := range vecs[i] {
			vecs[i][d] = base[community[i]][d] + 0.3*vecSrc.NormFloat64()
		}
	}
	driftSrc := src.Split()
	epochs := make([]*pref.System, 0, r.Epochs)
	for e := 0; e < r.Epochs; e++ {
		if e > 0 {
			for i := range vecs {
				next := make([]float64, r.Dims)
				for d := range next {
					next[d] = vecs[i][d] + r.DriftSigma*driftSrc.NormFloat64()
				}
				vecs[i] = next
			}
		}
		// Each epoch snapshots its own vectors; InterestMetric reads the
		// snapshot, so finished epochs stay valid as later ones drift.
		snap := make([][]float64, n)
		for i := range snap {
			snap[i] = append([]float64(nil), vecs[i]...)
		}
		sys, err := pref.BuildParallel(g, pref.InterestMetric{Interests: snap}, pref.UniformQuota(r.B), workers)
		if err != nil {
			return nil, err
		}
		epochs = append(epochs, sys)
	}
	return &Instance{System: epochs[len(epochs)-1], Epochs: epochs, Communities: community}, nil
}

func clamp01(p float64) float64 {
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// buildHetero: preferential attachment concentrates degree on early
// nodes; the top SuperFrac by degree become supernodes with the
// SuperB quota, everyone else keeps the leaf quota B. Preferences
// follow degree-correlated capacity.
func buildHetero(r Spec, src *rng.Source, workers int) (*Instance, error) {
	n := r.N
	m := min(4, max(n-1, 1))
	var g *graph.Graph
	if n < 2 {
		g = graph.NewBuilder(n).MustGraph()
	} else {
		g = gen.BarabasiAlbert(src.Split(), n, m)
	}
	superCount := max(1, int(r.SuperFrac*float64(n)))
	if superCount > n {
		superCount = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if g.Degree(order[a]) != g.Degree(order[b]) {
			return g.Degree(order[a]) > g.Degree(order[b])
		}
		return order[a] < order[b]
	})
	super := make([]bool, n)
	supers := append([]graph.NodeID(nil), order[:superCount]...)
	sort.Ints(supers)
	for _, u := range supers {
		super[u] = true
	}
	capacity := make([]float64, n)
	capSrc := src.Split()
	for i := range capacity {
		capacity[i] = float64(g.Degree(i)) + capSrc.Float64()
	}
	quota := func(i graph.NodeID) int {
		if super[i] {
			return r.SuperB
		}
		return r.B
	}
	sys, err := pref.BuildParallel(g, pref.ResourceMetric{Capacity: capacity}, quota, workers)
	if err != nil {
		return nil, err
	}
	return &Instance{System: sys, SuperNodes: supers}, nil
}

// buildMaster: a GNP contact graph ranked by one global master list —
// except for a colluding clique whose members boost each other above
// every honest node, the masterlist-manipulation adversary.
func buildMaster(r Spec, src *rng.Source, workers int) (*Instance, error) {
	n := r.N
	p := clamp01(8 / math.Max(float64(n-1), 1))
	g := gen.GNP(src.Split(), n, p)
	score := make([]float64, n)
	scoreSrc := src.Split()
	for i := range score {
		score[i] = scoreSrc.Float64()
	}
	clique := make([]bool, n)
	for _, i := range src.Split().Sample(n, int(r.Clique*float64(n))) {
		clique[i] = true
	}
	metric := pref.MetricFunc(func(i, j graph.NodeID) float64 {
		s := score[j]
		if clique[i] && clique[j] {
			s += 2 // colluders outrank every honest master-list score
		}
		return s
	})
	sys, err := pref.BuildParallel(g, metric, pref.UniformQuota(r.B), workers)
	if err != nil {
		return nil, err
	}
	return &Instance{System: sys}, nil
}

// buildAntilocal: disjoint 4-node path gadgets a-b-c-d with quota 1
// where both interior nodes prefer each other: under eq. 9 the middle
// edge weighs 2 against the outer 1.5, so the locally-heaviest
// matching takes only {b,c} while the optimum takes both outer edges —
// weight ratio 2/3, satisfaction share ½(1+1/b); the Lemma 1 tightness
// shape chained n/4 times. The remainder nodes (n mod 4) form one
// shorter path with the same center-first orientation.
func buildAntilocal(r Spec, workers int) (*Instance, error) {
	n := r.N
	b := graph.NewBuilder(n)
	lists := make([][]graph.NodeID, n)
	quotas := make([]int, n)
	addPath := func(lo, hi int) { // nodes lo..hi inclusive
		ln := hi - lo + 1
		for u := lo; u < hi; u++ {
			b.AddEdge(u, u+1)
		}
		for u := lo; u <= hi; u++ {
			quotas[u] = 1
			switch {
			case ln == 1:
				quotas[u] = 0
			case u == lo:
				lists[u] = []graph.NodeID{u + 1}
			case u == hi:
				lists[u] = []graph.NodeID{u - 1}
			default:
				// Interior nodes prefer the neighbor toward the center, so
				// central edges are locally heaviest.
				center := float64(lo+hi) / 2
				if float64(u) < center {
					lists[u] = []graph.NodeID{u + 1, u - 1}
				} else {
					lists[u] = []graph.NodeID{u - 1, u + 1}
				}
			}
		}
	}
	full := n / 4
	for k := 0; k < full; k++ {
		addPath(4*k, 4*k+3)
	}
	if rem := n % 4; rem > 0 {
		addPath(4*full, n-1)
	}
	g := b.MustGraph()
	_ = workers // list construction is explicit; nothing to parallelize
	sys, err := pref.FromRanks(g, lists, quotas)
	if err != nil {
		return nil, err
	}
	return &Instance{System: sys}, nil
}
