package matching

import (
	"math/bits"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/par"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
)

// LIC runs Algorithm 2 (Local Information-based Centralized) in its
// efficient sorted-scan form: edges are visited in decreasing weight
// order (the shared strict total order, (ord, id) over the table's
// packed order keys) and selected whenever both endpoints still have
// quota. By Lemma 6 the outcome of the literal "take any locally
// heaviest edge" loop is order-independent, and the descending scan
// is one valid such order, so this computes exactly the LIC (and
// hence LID, Lemmas 3–4) matching in O(m log m).
func LIC(s *pref.System, tbl *satisfaction.Table) *Matching {
	return LICParallel(s, tbl, 1)
}

// InducedLIC runs LIC on the subsystem induced by the nodes keep
// accepts (pref.System.Induced: each list keeps only kept neighbors, so
// ranks, and with them weights, are recomputed) and returns the result
// on s's graph, in s's node IDs. It is the fresh-recomputation
// yardstick for a system some of whose peers are gone.
func InducedLIC(s *pref.System, keep func(graph.NodeID) bool) (*Matching, error) {
	sub, back, err := s.Induced(keep)
	if err != nil {
		return nil, err
	}
	m := NewDense(s.Graph())
	for _, e := range LIC(sub, satisfaction.NewTable(sub)).Edges() {
		m.Add(back[e.U], back[e.V])
	}
	return m, nil
}

// LICParallel is LIC with the radix sort (and the trivial fills) fanned
// out over `workers` goroutines (0 = GOMAXPROCS); see
// sortByOrderKeyParallel for why the sorted order — and therefore the
// matching — is bit-identical to LIC for any worker count. The greedy
// selection scan (Fill) stays serial: it is a sequential dependence
// chain over the sorted order (each acceptance consumes quota the next
// decision reads) and it is O(m) with a few array lookups per edge,
// far from the bottleneck. workers <= 1 is exactly the serial code
// path.
func LICParallel(s *pref.System, tbl *satisfaction.Table, workers int) *Matching {
	workers = par.Workers(workers)
	g := s.Graph()
	// Sort dense EdgeIDs by the table's packed order keys rather than
	// with a comparison function: a stable LSD radix pass is O(m) and
	// ties (equal weights) keep ascending EdgeID order, which is exactly
	// the canonical-endpoint tiebreak of the shared order.
	ids := make([]graph.EdgeID, g.NumEdges())
	par.ForEachChunk(len(ids), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = graph.EdgeID(i)
		}
	})
	sortByOrderKeyParallel(ids, tbl.OrderKeys(), workers)
	counter := make([]int, g.NumNodes())
	par.ForEachChunk(len(counter), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counter[i] = s.Quota(i)
		}
	})
	m := NewDense(g)
	m.preallocate(s)
	m.Fill(ids, counter)
	return m
}

// Fill is the one heaviest-first greedy walk, LIC's selection scan:
// it visits ids in the order given, which must be the shared
// heaviest-first order ((ord, id) ascending, as SortEdgeIDs leaves
// it), and selects every edge not yet selected whose endpoints both
// have room left, taking one unit of each endpoint's room. Room
// indexed by node is the caller's capacity budget (the quotas, for
// LIC) and is consumed in place.
func (m *Matching) Fill(ids []graph.EdgeID, room []int) {
	for _, id := range ids {
		e := m.g.EdgeByID(id)
		if room[e.U] > 0 && room[e.V] > 0 && !m.HasID(id) {
			m.addEdgeID(id, e)
			room[e.U]--
			room[e.V]--
		}
	}
}

// sortByOrderKey stable-sorts ids ascending by ord[id] (heaviest edge
// first — see satisfaction.Table.OrderKeys) with an LSD radix sort:
// 8-bit digits, one counting pass each, skipping digits on which all
// keys agree. Stability plus the ascending initial order makes equal
// keys come out in ascending EdgeID order.
func sortByOrderKey(ids []graph.EdgeID, ord []uint64) {
	if len(ids) < 2 {
		return
	}
	src, dst := ids, make([]graph.EdgeID, len(ids))
	var counts [256]int
	for shift := 0; shift < 64; shift += 8 {
		counts = [256]int{}
		for _, id := range src {
			counts[(ord[id]>>shift)&0xff]++
		}
		if counts[(ord[src[0]]>>shift)&0xff] == len(src) {
			continue // all keys share this digit
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, id := range src {
			d := (ord[id] >> shift) & 0xff
			dst[counts[d]] = id
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// SortEdgeIDs stable-sorts ids ascending by ord[id] — serially for
// workers <= 1 and with the sharded parallel radix sort otherwise
// (identical output either way). When ord is
// satisfaction.Table.OrderKeys and ids come in ascending order, the
// result is (ord[id], id) ascending: the shared heaviest-first total
// order that Fill walks. LIC, the churn engine's inherited-order LIC,
// the exact oracle's branch order and the variants' scans all sort
// edges this way.
func SortEdgeIDs(ids []graph.EdgeID, ord []uint64, workers int) {
	sortByOrderKeyParallel(ids, ord, workers)
}

// parallelSortMin is the slice length below which the parallel radix
// sort falls back to the serial one: under ~64k keys the per-digit
// join overhead exceeds the counting work being split.
const parallelSortMin = 1 << 16

// sortByOrderKeyParallel is sortByOrderKey with each digit's counting
// and scatter passes sharded over contiguous ranges of src. The output
// is bit-identical to the serial sort: per digit, each shard counts its
// own 256-bucket histogram; the exclusive prefix sum runs serially over
// (digit, shard) in digit-major shard-minor order, handing every shard
// a disjoint set of destination cursors per bucket; the scatter then
// places each key at a position determined only by the histograms — so
// within a bucket, keys land shard by shard in scan order, which is
// exactly the serial stable order. No write is contended and no result
// depends on goroutine scheduling.
func sortByOrderKeyParallel(ids []graph.EdgeID, ord []uint64, workers int) {
	if workers <= 1 || len(ids) < parallelSortMin {
		sortByOrderKey(ids, ord)
		return
	}
	n := len(ids)
	src, dst := ids, make([]graph.EdgeID, n)
	shards := par.NumShards(n, workers)
	counts := make([][256]int, shards)
	for shift := 0; shift < 64; shift += 8 {
		par.ForEachShard(n, workers, func(sh, lo, hi int) {
			c := &counts[sh]
			*c = [256]int{}
			for _, id := range src[lo:hi] {
				c[(ord[id]>>shift)&0xff]++
			}
		})
		first := (ord[src[0]] >> shift) & 0xff
		onFirst := 0
		for sh := range counts {
			onFirst += counts[sh][first]
		}
		if onFirst == n {
			continue // all keys share this digit
		}
		sum := 0
		for d := 0; d < 256; d++ {
			for sh := 0; sh < shards; sh++ {
				c := counts[sh][d]
				counts[sh][d] = sum
				sum += c
			}
		}
		par.ForEachShard(n, workers, func(sh, lo, hi int) {
			c := &counts[sh]
			for _, id := range src[lo:hi] {
				d := (ord[id] >> shift) & 0xff
				dst[c[d]] = id
				c[d]++
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// LICLiteral runs Algorithm 2 exactly as printed: maintain the edge
// pool P, repeatedly take *a* locally heaviest edge (chosen uniformly
// at random among all currently locally heaviest ones, driven by src),
// add it to the matching, decrement the endpoint counters, and drop all
// edges of saturated nodes. It exists to witness Lemma 6: for any
// selection order the outcome equals LIC's.
//
// The pool is maintained incrementally instead of rescanned: each node
// keeps a cursor into its weight-ordered incident-edge list (the
// table's SortedIncident), pointing at its heaviest still-pooled edge,
// and an edge is locally heaviest exactly when both endpoint cursors
// point at it. Cursors only ever advance, so total maintenance is
// O(Σ deg) = O(m) plus a bitset rank per selection — O(m·Δ) overall
// where the per-call rescan loop was O(m²). Candidate selection order
// (ascending EdgeID = canonical lexicographic) and rng consumption are
// identical to the rescanning version, so outcomes are bit-identical.
func LICLiteral(s *pref.System, tbl *satisfaction.Table, src *rng.Source) *Matching {
	g := s.Graph()
	nEdges := g.NumEdges()
	words := (nEdges + 63) / 64
	alive := make([]uint64, words)
	for i := 0; i < nEdges; i++ {
		alive[i>>6] |= 1 << (i & 63)
	}
	cand := make([]uint64, words)
	candN := 0
	cursor := make([]int32, g.NumNodes())
	sortedInc := make([][]graph.EdgeID, g.NumNodes())
	for x := 0; x < g.NumNodes(); x++ {
		sortedInc[x] = tbl.SortedIncident(s, x)
	}
	isAlive := func(id graph.EdgeID) bool { return alive[id>>6]&(1<<(id&63)) != 0 }
	// heaviestAt returns x's heaviest pooled incident edge, or -1.
	heaviestAt := func(x graph.NodeID) graph.EdgeID {
		if int(cursor[x]) < len(sortedInc[x]) {
			return sortedInc[x][cursor[x]]
		}
		return -1
	}
	setCand := func(id graph.EdgeID) {
		w, b := id>>6, uint64(1)<<(id&63)
		if cand[w]&b == 0 {
			cand[w] |= b
			candN++
		}
	}
	// advance moves x's cursor past dead edges; if the new heaviest is
	// also its other endpoint's heaviest, it just became locally
	// heaviest.
	advance := func(x graph.NodeID) {
		inc := sortedInc[x]
		for int(cursor[x]) < len(inc) && !isAlive(inc[cursor[x]]) {
			cursor[x]++
		}
		if int(cursor[x]) < len(inc) {
			id := inc[cursor[x]]
			if heaviestAt(g.OtherEndpoint(id, x)) == id {
				setCand(id)
			}
		}
	}
	aliveN := nEdges
	removeEdge := func(id graph.EdgeID) {
		w, b := id>>6, uint64(1)<<(id&63)
		alive[w] &^= b
		aliveN--
		if cand[w]&b != 0 {
			cand[w] &^= b
			candN--
		}
		e := g.EdgeByID(id)
		if heaviestAt(e.U) == id {
			advance(e.U)
		}
		if heaviestAt(e.V) == id {
			advance(e.V)
		}
	}
	// Initial candidates: both endpoint cursors sit at position 0.
	for id := graph.EdgeID(0); int(id) < nEdges; id++ {
		e := g.EdgeByID(id)
		if heaviestAt(e.U) == id && heaviestAt(e.V) == id {
			setCand(id)
		}
	}
	counter := make([]int, g.NumNodes())
	for i := range counter {
		counter[i] = s.Quota(i)
	}
	m := NewDense(g)
	m.preallocate(s)
	for aliveN > 0 {
		if candN == 0 {
			panic("matching: non-empty pool without a locally heaviest edge")
		}
		id := nthSetBit(cand, src.Intn(candN))
		e := g.EdgeByID(id)
		m.addEdgeID(id, e)
		counter[e.U]--
		counter[e.V]--
		removeEdge(id)
		for _, x := range [2]graph.NodeID{e.U, e.V} {
			if counter[x] == 0 {
				for _, eid := range g.IncidentEdges(x) {
					if isAlive(eid) {
						removeEdge(eid)
					}
				}
			}
		}
	}
	return m
}

// nthSetBit returns the position of the k-th (0-based) set bit of bs.
func nthSetBit(bs []uint64, k int) graph.EdgeID {
	for w, word := range bs {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		for ; word != 0; word &= word - 1 {
			if k == 0 {
				return graph.EdgeID(w<<6 + bits.TrailingZeros64(word))
			}
			k--
		}
	}
	panic("matching: set-bit rank out of range")
}
