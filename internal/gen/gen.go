// Package gen generates the overlay topologies used by the experiment
// suite. The paper's setting (§1) is a peer-to-peer overlay in which each
// peer knows part of the network as potential neighbors; the generators
// here provide the standard families such overlays are modelled with:
// Erdős–Rényi (uniform random), random geometric (distance-limited
// radios/latency), Barabási–Albert (power-law peer popularity),
// Watts–Strogatz (rewired small world), stochastic block model
// (interest communities), and the deterministic families (ring, grid,
// complete, star, path, full binary tree) used by the bound-tightness
// tests. All generators are deterministic given the rng.Source.
package gen

import (
	"fmt"
	"math"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/rng"
)

// GNP returns an Erdős–Rényi G(n,p) graph: every pair is an edge
// independently with probability p. It panics if p is outside [0,1] or
// n is negative.
func GNP(src *rng.Source, n int, p float64) *graph.Graph {
	if n < 0 {
		panic("gen: GNP with negative n")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("gen: GNP with p=%v outside [0,1]", p))
	}
	b := graph.NewBuilder(n)
	switch {
	case p == 0:
	case p == 1:
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
	default:
		// Geometric skipping (Batagelj–Brandes): walk the strictly
		// upper-triangular pair sequence jumping Geom(p) slots at a
		// time, O(m) instead of O(n^2) for sparse p.
		logq := math.Log1p(-p)
		u, v := 0, 0
		for u < n {
			r := src.Float64()
			skip := int(math.Floor(math.Log1p(-r) / logq))
			v += 1 + skip
			for v >= n && u < n {
				u++
				v = v - n + u + 1
			}
			if u < n-1 && v < n {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustGraph()
}

// GNM returns a uniform random graph with exactly m edges among n
// nodes. It panics if m exceeds the number of possible edges.
func GNM(src *rng.Source, n, m int) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m < 0 || m > maxM {
		panic(fmt.Sprintf("gen: GNM with m=%d outside [0,%d]", m, maxM))
	}
	b := graph.NewBuilder(n)
	if m > maxM/2 {
		// Dense: sample edge indices without replacement.
		for _, idx := range src.Sample(maxM, m) {
			u, v := pairFromIndex(idx)
			b.AddEdge(u, v)
		}
		return b.MustGraph()
	}
	for b.NumEdges() < m {
		b.TryAddEdge(src.Intn(n), src.Intn(n))
	}
	return b.MustGraph()
}

// pairFromIndex maps an index in [0, n(n-1)/2) to the corresponding
// pair (u,v), u<v, in the row-major upper-triangular enumeration
// (0,1),(0,2),...,(0,n-1),(1,2),...
func pairFromIndex(idx int) (int, int) {
	// Solve for u: idx >= u*n - u(u+1)/2 boundaries; simpler to derive v
	// from the triangular enumeration (u,v) with v>u using the inverse
	// of t = v(v-1)/2 + u with u<v (column-major lower triangle), which
	// is equivalent and cheap:
	v := int((1 + math.Sqrt(1+8*float64(idx))) / 2)
	for v*(v-1)/2 > idx {
		v--
	}
	for (v+1)*v/2 <= idx {
		v++
	}
	u := idx - v*(v-1)/2
	return u, v
}

// Geometric returns a random geometric graph: n points uniform in the
// unit square, an edge whenever Euclidean distance ≤ radius. It also
// returns the coordinates (x,y per node) so distance-based preference
// metrics can reuse them.
func Geometric(src *rng.Source, n int, radius float64) (*graph.Graph, [][2]float64) {
	if radius < 0 {
		panic("gen: Geometric with negative radius")
	}
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{src.Float64(), src.Float64()}
	}
	b := graph.NewBuilder(n)
	AddRadiusEdges(b, pts, radius)
	return b.MustGraph(), pts
}

// AddRadiusEdges adds to b an edge between every two of pts within
// Euclidean distance radius. Points are bucketed into a grid of
// radius-sized cells, so each scans only its own and the 8 adjacent
// cells and construction stays near linear. A pair b already holds is
// skipped, which lets a caller union the radius graphs of several
// snapshots (a mobility trace) into one builder.
func AddRadiusEdges(b *graph.Builder, pts [][2]float64, radius float64) {
	r2 := radius * radius
	cell := radius
	if cell <= 0 || cell > 1 {
		cell = 1
	}
	buckets := make(map[[2]int][]int)
	key := func(p [2]float64) [2]int {
		return [2]int{int(p[0] / cell), int(p[1] / cell)}
	}
	for i, p := range pts {
		buckets[key(p)] = append(buckets[key(p)], i)
	}
	for i, p := range pts {
		k := key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{k[0] + dx, k[1] + dy}] {
					if j <= i {
						continue
					}
					ddx := p[0] - pts[j][0]
					ddy := p[1] - pts[j][1]
					if ddx*ddx+ddy*ddy <= r2 {
						b.TryAddEdge(i, j)
					}
				}
			}
		}
	}
}

// BarabasiAlbert returns a preferential-attachment graph: starts from a
// clique on m0 = m+1 nodes, then each new node attaches to m existing
// nodes chosen proportionally to their current degree (without
// replacement). It panics unless 1 ≤ m < n.
func BarabasiAlbert(src *rng.Source, n, m int) *graph.Graph {
	if m < 1 || m >= n {
		panic(fmt.Sprintf("gen: BarabasiAlbert needs 1 <= m < n, got n=%d m=%d", n, m))
	}
	b := graph.NewBuilder(n)
	// repeated holds one entry per endpoint per edge; sampling an index
	// uniformly from it is degree-proportional sampling.
	var repeated []int
	m0 := m + 1
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			b.AddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	for u := m0; u < n; u++ {
		// Collect m distinct degree-proportional targets in draw order;
		// map iteration would make the pool (and thus the whole graph)
		// nondeterministic.
		chosen := make(map[int]struct{}, m)
		targets := make([]int, 0, m)
		for len(targets) < m {
			t := repeated[src.Intn(len(repeated))]
			if _, dup := chosen[t]; dup {
				continue
			}
			chosen[t] = struct{}{}
			targets = append(targets, t)
		}
		for _, v := range targets {
			b.AddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	return b.MustGraph()
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// node connects to its k nearest neighbors (k even), with each edge
// rewired with probability beta to a uniform random non-duplicate
// target. It panics unless k is even, 0 < k < n, and beta in [0,1].
func WattsStrogatz(src *rng.Source, n, k int, beta float64) *graph.Graph {
	if k <= 0 || k%2 != 0 || k >= n {
		panic(fmt.Sprintf("gen: WattsStrogatz needs even 0 < k < n, got n=%d k=%d", n, k))
	}
	if beta < 0 || beta > 1 || math.IsNaN(beta) {
		panic(fmt.Sprintf("gen: WattsStrogatz with beta=%v outside [0,1]", beta))
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for d := 1; d <= k/2; d++ {
			v := (u + d) % n
			if !src.Bool(beta) {
				b.TryAddEdge(u, v)
				continue
			}
			// Rewire: keep u, pick a fresh target.
			placed := false
			for attempts := 0; attempts < 4*n; attempts++ {
				w := src.Intn(n)
				if b.TryAddEdge(u, w) {
					placed = true
					break
				}
			}
			if !placed {
				b.TryAddEdge(u, v) // fall back to the lattice edge
			}
		}
	}
	return b.MustGraph()
}

// SBM returns a stochastic block model graph over the given community
// sizes: nodes in the same community connect with probability pIn,
// across communities with pOut. It returns the graph and each node's
// community index. Node IDs are assigned community-by-community.
func SBM(src *rng.Source, sizes []int, pIn, pOut float64) (*graph.Graph, []int) {
	for _, p := range []float64{pIn, pOut} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			panic(fmt.Sprintf("gen: SBM with probability %v outside [0,1]", p))
		}
	}
	n := 0
	for _, s := range sizes {
		if s < 0 {
			panic("gen: SBM with negative community size")
		}
		n += s
	}
	community := make([]int, n)
	id := 0
	for c, s := range sizes {
		for k := 0; k < s; k++ {
			community[id] = c
			id++
		}
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if community[u] == community[v] {
				p = pIn
			}
			if src.Bool(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustGraph(), community
}

// Ring returns the cycle graph C_n (n ≥ 3); for n < 3 it returns the
// path on n nodes instead, so small inputs remain valid graphs.
func Ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1)
	}
	if n >= 3 {
		b.AddEdge(n-1, 0)
	}
	return b.MustGraph()
}

// Path returns the path graph P_n.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1)
	}
	return b.MustGraph()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustGraph()
}

// Star returns the star graph on n nodes with node 0 at the center.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustGraph()
}

// Grid returns the rows×cols 2D grid graph; node (r,c) has ID r*cols+c.
func Grid(rows, cols int) *graph.Graph {
	if rows < 0 || cols < 0 {
		panic("gen: Grid with negative dimension")
	}
	b := graph.NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				b.AddEdge(id, id+1)
			}
			if r+1 < rows {
				b.AddEdge(id, id+cols)
			}
		}
	}
	return b.MustGraph()
}

// BinaryTree returns the complete binary tree on n nodes where node i
// has children 2i+1 and 2i+2.
func BinaryTree(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if l := 2*i + 1; l < n {
			b.AddEdge(i, l)
		}
		if r := 2*i + 2; r < n {
			b.AddEdge(i, r)
		}
	}
	return b.MustGraph()
}

// CompleteBipartite returns K_{a,b}: nodes 0..a-1 on one side,
// a..a+b-1 on the other, all cross edges present.
func CompleteBipartite(a, b int) *graph.Graph {
	if a < 0 || b < 0 {
		panic("gen: CompleteBipartite with negative side")
	}
	bld := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bld.AddEdge(u, v)
		}
	}
	return bld.MustGraph()
}

// RandomTree returns a uniform random labelled tree on n nodes via a
// random Prüfer sequence (n ≥ 2; n ≤ 1 returns an edgeless graph).
func RandomTree(src *rng.Source, n int) *graph.Graph {
	if n <= 1 {
		return graph.NewBuilder(max(n, 0)).MustGraph() // built-in max: clamp n=-? to 0
	}
	if n == 2 {
		return graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = src.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	b := graph.NewBuilder(n)
	// Standard Prüfer decoding with a scan pointer and a "leaf" cursor.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// Join the last two leaves: leaf and n-1.
	b.AddEdge(leaf, n-1)
	return b.MustGraph()
}
