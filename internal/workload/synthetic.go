package workload

import (
	"flag"
	"fmt"
	"math"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
)

// Synthetic is the instance recipe of the experiment suite, of the
// overlaysim, overlaynode and graphgen instance flags, and of fault
// replay files (whose "workload" object is its JSON form): a generator
// topology, a suitability metric from the paper's introduction, a
// uniform quota and one seed. The graph draws from the seed's first
// Split and the metric from its second, also for the topologies that
// use no randomness, so the metric's stream never depends on the
// topology.
//
// A zero shape parameter takes its default, which keeps the average
// degree near 8:
//
//	p       gnp edge probability: 8/(n−1), at most 1
//	radius  geometric radius: 1.6/√n
//	m       ba attachments per node: 4, at most n−1 (no edges below 1)
//	k       ws lattice degree, even: 6, at most the largest even
//	        number below n (a ring below 2)
//	beta    ws rewiring probability: 0.2
//	rows    grid rows: 10, at most n
//	edges   gnm edge count: 4n, at most n(n−1)/2
//
// A grid is the first n nodes, row-major, of the rows × ⌈n/rows⌉
// lattice, so every topology has exactly n nodes.
type Synthetic struct {
	// Topology is gnp | gnm | geometric | ba | ws | ring | grid |
	// complete | star | tree.
	Topology string `json:"topology"`
	N        int    `json:"n"`
	// B is every node's connection quota.
	B int `json:"b"`
	// Metric is random | symmetric | distance | resource |
	// transactions. distance ranks by the geometric coordinates, or
	// by uniform points drawn from the metric's stream on the other
	// topologies.
	Metric string `json:"metric"`
	Seed   uint64 `json:"seed"`

	P      float64 `json:"p,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	M      int     `json:"m,omitempty"`
	K      int     `json:"k,omitempty"`
	Beta   float64 `json:"beta,omitempty"`
	Rows   int     `json:"rows,omitempty"`
	Edges  int     `json:"edges,omitempty"`
}

// Size caps, so a corrupted replay file or a mistyped flag fails fast
// instead of allocating an absurd instance. The edge cap is four times
// the default-degree instance at the largest n; the transactions
// metric stores a dense n×n history.
const (
	maxSyntheticN     = 1 << 20
	maxSyntheticEdges = 1 << 24
	maxTransactionsN  = 1 << 12
)

// drawFunc draws a topology from the seed's first split; coords are
// the node positions of a geometric graph and nil otherwise.
type drawFunc func(src *rng.Source) (g *graph.Graph, coords [][2]float64)

// metricFunc draws a metric over g from the seed's second split.
type metricFunc func(src *rng.Source, g *graph.Graph, coords [][2]float64) pref.Metric

// Validate checks names and ranges, and bounds the instance: at most
// 2^20 nodes, 2^24 expected edges, and 2^12 nodes under the
// transactions metric. Graph and Build validate first. n = 0 is the
// empty instance; a quota above a node's degree is clamped to it.
func (s Synthetic) Validate() error {
	if s.N < 0 || s.N > maxSyntheticN {
		return fmt.Errorf("workload: n=%d outside [0,2^20]", s.N)
	}
	pairs := float64(s.N) * float64(s.N-1) / 2
	switch {
	case s.B < 0 || s.B > maxSyntheticN:
		return fmt.Errorf("workload: b=%d outside [0,2^20]", s.B)
	case !(s.P >= 0 && s.P <= 1):
		return fmt.Errorf("workload: p=%v outside [0,1]", s.P)
	case !(s.Radius >= 0 && s.Radius <= 2):
		return fmt.Errorf("workload: radius=%v outside [0,2]", s.Radius)
	case s.M < 0 || s.M > s.N:
		return fmt.Errorf("workload: m=%d outside [0,n]", s.M)
	case s.K < 0 || s.K > s.N || s.K%2 != 0:
		return fmt.Errorf("workload: k=%d is not an even number in [0,n]", s.K)
	case !(s.Beta >= 0 && s.Beta <= 1):
		return fmt.Errorf("workload: beta=%v outside [0,1]", s.Beta)
	case s.Rows < 0 || s.Rows > s.N:
		return fmt.Errorf("workload: rows=%d outside [0,n]", s.Rows)
	case s.Edges < 0 || float64(s.Edges) > pairs:
		return fmt.Errorf("workload: edges=%d outside [0,n(n-1)/2]", s.Edges)
	}
	edges, _, err := s.topology()
	if err != nil {
		return err
	}
	if edges > maxSyntheticEdges {
		return fmt.Errorf("workload: %s n=%d expects %.3g edges, above the 2^24 cap", s.Topology, s.N, edges)
	}
	_, err = s.metric()
	return err
}

// topology resolves the spec's generator: its expected edge count and
// the draw, with every default and clamp applied. Shape ranges are
// Validate's.
func (s Synthetic) topology() (float64, drawFunc, error) {
	n := s.N
	pairs := float64(n) * float64(n-1) / 2
	plain := func(f func(src *rng.Source) *graph.Graph) drawFunc {
		return func(src *rng.Source) (*graph.Graph, [][2]float64) { return f(src), nil }
	}
	switch s.Topology {
	case "gnp":
		p := s.P
		if p == 0 {
			p = min(8/float64(max(n-1, 1)), 1)
		}
		return p * pairs, plain(func(src *rng.Source) *graph.Graph { return gen.GNP(src, n, p) }), nil
	case "gnm":
		m := s.Edges
		if m == 0 {
			m = int(min(4*float64(n), pairs))
		}
		return float64(m), plain(func(src *rng.Source) *graph.Graph { return gen.GNM(src, n, m) }), nil
	case "geometric":
		r := s.Radius
		if r == 0 {
			r = 1.6 / sqrtNewton(float64(n))
		}
		return min(math.Pi*r*r, 1) * pairs, func(src *rng.Source) (*graph.Graph, [][2]float64) {
			return gen.Geometric(src, n, r)
		}, nil
	case "ba":
		m := s.M
		if m == 0 {
			m = 4
		}
		m = min(m, n-1)
		return float64(m) * float64(n), plain(func(src *rng.Source) *graph.Graph {
			if m < 1 {
				return graph.NewBuilder(n).MustGraph()
			}
			return gen.BarabasiAlbert(src, n, m)
		}), nil
	case "ws":
		k, beta := s.K, s.Beta
		if k == 0 {
			k = 6
		}
		if k >= n {
			k = (n - 1) / 2 * 2
		}
		if beta == 0 {
			beta = 0.2
		}
		return float64(k) * float64(n) / 2, plain(func(src *rng.Source) *graph.Graph {
			if k < 2 {
				return gen.Ring(n)
			}
			return gen.WattsStrogatz(src, n, k, beta)
		}), nil
	case "ring":
		return float64(n), plain(func(*rng.Source) *graph.Graph { return gen.Ring(n) }), nil
	case "grid":
		rows := s.Rows
		if rows == 0 {
			rows = min(10, max(n, 1))
		}
		return 2 * float64(n), plain(func(*rng.Source) *graph.Graph {
			keep := make([]graph.NodeID, n)
			for id := range keep {
				keep[id] = id
			}
			g, _, err := gen.Grid(rows, (n+rows-1)/rows).Subgraph(keep)
			if err != nil {
				panic(err) // keep is a prefix of the grid's nodes
			}
			return g
		}), nil
	case "complete":
		return pairs, plain(func(*rng.Source) *graph.Graph { return gen.Complete(n) }), nil
	case "star":
		return float64(n - 1), plain(func(*rng.Source) *graph.Graph { return gen.Star(n) }), nil
	case "tree":
		return float64(n - 1), plain(func(src *rng.Source) *graph.Graph { return gen.RandomTree(src, n) }), nil
	}
	return 0, nil, fmt.Errorf("workload: unknown topology %q", s.Topology)
}

// metric resolves the spec's metric; the transactions history is
// bounded here.
func (s Synthetic) metric() (metricFunc, error) {
	switch s.Metric {
	case "random":
		return func(src *rng.Source, _ *graph.Graph, _ [][2]float64) pref.Metric {
			return pref.NewRandomMetric(src)
		}, nil
	case "symmetric":
		return func(src *rng.Source, _ *graph.Graph, _ [][2]float64) pref.Metric {
			return pref.NewSymmetricRandomMetric(src)
		}, nil
	case "distance":
		return func(src *rng.Source, g *graph.Graph, coords [][2]float64) pref.Metric {
			if coords == nil {
				coords = make([][2]float64, g.NumNodes())
				for i := range coords {
					coords[i] = [2]float64{src.Float64(), src.Float64()}
				}
			}
			return pref.DistanceMetric{Coords: coords}
		}, nil
	case "resource":
		return func(src *rng.Source, g *graph.Graph, _ [][2]float64) pref.Metric {
			capacity := make([]float64, g.NumNodes())
			for i := range capacity {
				capacity[i] = src.Float64()
			}
			return pref.ResourceMetric{Capacity: capacity}
		}, nil
	case "transactions":
		if s.N > maxTransactionsN {
			return nil, fmt.Errorf("workload: transactions needs an n×n history; n=%d above 2^12", s.N)
		}
		return func(src *rng.Source, g *graph.Graph, _ [][2]float64) pref.Metric {
			history := make([][]float64, g.NumNodes())
			for i := range history {
				history[i] = make([]float64, g.NumNodes())
				for _, j := range g.Neighbors(i) {
					history[i][j] = src.NormFloat64()
				}
			}
			return pref.TransactionMetric{History: history}
		}, nil
	}
	return nil, fmt.Errorf("workload: unknown metric %q", s.Metric)
}

// Graph draws the spec's topology from the seed's first split. coords
// are the positions of a geometric graph, nil otherwise; hand both to
// System.
func (s Synthetic) Graph() (*graph.Graph, [][2]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	_, draw, _ := s.topology() // Validate resolved it
	g, coords := draw(rng.New(s.Seed).Split())
	return g, coords, nil
}

// System ranks every neighbourhood of g, the spec's Graph, by the
// spec's metric drawn from the seed's second split.
func (s Synthetic) System(g *graph.Graph, coords [][2]float64) (*pref.System, error) {
	metric, err := s.metric()
	if err != nil {
		return nil, err
	}
	src := rng.New(s.Seed)
	src.Split() // the graph's
	sys, err := pref.Build(g, metric(src.Split(), g, coords), pref.UniformQuota(s.B))
	if err != nil {
		return nil, fmt.Errorf("workload: %s/%s n=%d: %w", s.Topology, s.Metric, s.N, err)
	}
	return sys, nil
}

// Build draws the graph and ranks it: Graph, then System.
func (s Synthetic) Build() (*pref.System, error) {
	g, coords, err := s.Graph()
	if err != nil {
		return nil, err
	}
	return s.System(g, coords)
}

// BindFlags binds the instance flags of the command-line tools to a new
// spec and returns it: -topology (default gnp), -n (default n), -b (3),
// -metric (random), -seed (1) and the named shape flags out of p,
// radius, m, k, beta, rows and edges. A tool names only the shape flags
// it has; a topology whose shape flags it lacks takes their defaults.
// A shape flag at 0, set or not, takes the spec default, so an
// explicit 0 (an unrewired ws lattice, an edgeless gnp) is not
// available.
func BindFlags(fs *flag.FlagSet, n int, shapes ...string) *Synthetic {
	s := new(Synthetic)
	fs.StringVar(&s.Topology, "topology", "gnp", "gnp | gnm | geometric | ba | ws | ring | grid | complete | star | tree")
	fs.IntVar(&s.N, "n", n, "number of nodes")
	fs.IntVar(&s.B, "b", 3, "connection quota per node")
	fs.StringVar(&s.Metric, "metric", "random", "preference metric: random | symmetric | distance | resource | transactions")
	fs.Uint64Var(&s.Seed, "seed", 1, "random seed")
	for _, name := range shapes {
		switch name {
		case "p":
			fs.Float64Var(&s.P, name, 0, "gnp edge probability in (0,1] (0 = 8/(n−1))")
		case "radius":
			fs.Float64Var(&s.Radius, name, 0, "geometric radius in (0,2] (0 = 1.6/√n)")
		case "m":
			fs.IntVar(&s.M, name, 0, "ba attachments per node (0 = 4)")
		case "k":
			fs.IntVar(&s.K, name, 0, "ws lattice degree, even (0 = 6)")
		case "beta":
			fs.Float64Var(&s.Beta, name, 0, "ws rewiring probability in (0,1] (0 = 0.2)")
		case "rows":
			fs.IntVar(&s.Rows, name, 0, "grid rows (0 = 10)")
		case "edges":
			fs.IntVar(&s.Edges, name, 0, "gnm edge count (0 = 4n)")
		default:
			panic(fmt.Sprintf("workload: no shape flag %q", name))
		}
	}
	return s
}

// OracleGNP is the G(n,p) instance with random preferences of E1, E3,
// E5c and E11–E13 and of the benchmark harnesses. Unlike Synthetic, the
// graph draws from the seed's own stream, and the metric from the
// stream's first split after the graph.
func OracleGNP(seed uint64, n int, p float64, b int) (*pref.System, error) {
	src := rng.New(seed)
	g := gen.GNP(src, n, p)
	return pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(b))
}

// sqrtNewton is the square root of the geometric default radius. It is
// not math.Sqrt: the two differ in the last bit for about a quarter of
// the integers up to 2·10^6, which would move geometric edges of the
// pinned instances.
func sqrtNewton(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}
