// Churn-survival engine: an epoch-batched, budget-bounded incremental
// repair loop over the dynamic Overlay, and the only code that applies
// a membership or preference update to it.
//
// The Engine models a streaming membership feed against a live
// overlay, with three defenses layered on top of the locally-heaviest
// repair rule. A driver that wants each event repaired on its own, to
// score the overlay after every event, steps the feed one epoch per
// event (Step).
//
//   - Epoch batching. Updates are queued and coalesced; a repair epoch
//     launches only when the previous one has finished (epoch cost is
//     a deterministic virtual-time model, so latency columns are
//     golden-safe). An update arriving while an epoch is in flight is
//     a collision: the flush retries with doubled backoff, and the
//     whole backlog lands in one batch — churn bursts amortize.
//
//   - Bounded repair regions + round budget. Each epoch repairs only
//     the frontier reachable from the batch's seed nodes (region size
//     is recorded per epoch). With RepairRounds = k > 0 the repair is
//     truncated after k cascade rounds in the spirit of Floréen et
//     al.'s almost-stable matchings: every candidate edge left
//     unprocessed at truncation is parked in a deferred set whose size
//     is a certified upper bound on the number of blocking edges
//     (see the invariant note on repairBounded). Deferred edges
//     re-seed the next epoch, so the overlay heals once load drops.
//
//   - Overload shedding. If the batch exceeds ShedDepth the epoch
//     degrades to a one-round, region-local backup placement
//     (Barenboim–Oren style, as in internal/tournament/backup.go):
//     membership cleanup still runs (a leave always drops its edges —
//     that is correctness, not quality), free nodes propose to their
//     heaviest free neighbors, mutual-feasible proposals land, and
//     every unresolved candidate is deferred. Shedding reduces work,
//     never validity: quota and aliveness invariants hold after every
//     epoch, bounded or shed.
package dynamic

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// Virtual cost model of one repair epoch. Epoch latency is derived
// from work actually done (rounds swept and candidate edges examined),
// not wall clock, so every latency figure in experiments and tests is
// bit-reproducible.
const (
	epochBaseCost     = 1.0
	epochRoundCost    = 0.25
	epochExaminedCost = 1.0 / 64
	// Collision backoff: first retry waits retryBaseDelay after the
	// in-flight epoch ends; each further collision doubles the wait,
	// capped at retryMaxDelay.
	retryBaseDelay = 0.5
	retryMaxDelay  = 8.0
)

// UpdateKind labels one queued overlay update.
type UpdateKind int

const (
	// UpdateJoin restores a node (no-op if already alive at apply time).
	UpdateJoin UpdateKind = iota
	// UpdateLeave removes a node (no-op if already dead at apply time).
	UpdateLeave
	// UpdateRerank swaps in a new preference system over the same
	// graph; Dirty names the nodes whose lists or quotas changed.
	UpdateRerank
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateJoin:
		return "join"
	case UpdateLeave:
		return "leave"
	case UpdateRerank:
		return "rerank"
	}
	return fmt.Sprintf("UpdateKind(%d)", int(k))
}

// TimedEvent is one overlay update: an entry of a pre-computed
// schedule and of the engine's pending queue.
type TimedEvent struct {
	At     float64 // submission time (virtual)
	Kind   UpdateKind
	Node   graph.NodeID   // UpdateJoin and UpdateLeave only
	System *pref.System   // UpdateRerank only
	Dirty  []graph.NodeID // UpdateRerank only
}

// EpochRecord is the per-epoch telemetry row: what was coalesced, how
// far repair got, and how tight the degradation bound is.
type EpochRecord struct {
	Epoch     int
	Start     float64 // flush launch time
	End       float64 // Start + virtual epoch cost
	Batch     int     // updates coalesced into this epoch
	Retries   int     // collisions absorbed before this flush won
	Rounds    int     // cascade rounds actually swept
	Truncated bool    // round budget exhausted with candidates left
	Shed      bool    // epoch degraded to one-round backup placement
	Region    int     // nodes in the repair region
	Stats     EventStats
	Deferred  int // certified blocking-edge bound after this epoch
	Blocking  int // measured blocking edges (-1 unless MeasureStability)
}

// Latency returns the virtual repair latency of the epoch.
func (r EpochRecord) Latency() float64 { return r.End - r.Start }

// EngineOptions configures a churn-survival Engine.
type EngineOptions struct {
	// RepairRounds truncates each epoch's repair after k cascade
	// rounds; 0 means full budget (repair runs to quiescence).
	RepairRounds int
	// ShedDepth sheds epochs whose batch exceeds it to one-round
	// backup placement; 0 disables shedding.
	ShedDepth int
	// Workers parallelizes the initial table/LIC build and rerank
	// table rebuilds (bit-identical for any count; ≤1 is serial).
	Workers int
	// MeasureStability counts blocking edges (O(m)) after every epoch
	// so records carry Blocking alongside the Deferred bound.
	MeasureStability bool
	// CompleteOnly restricts repair to completion: candidate edges are
	// added heaviest first while both endpoints have free quota, and
	// an established connection is never displaced. The zero value
	// keeps preemptive repair. Under CompleteOnly an edge that would
	// preempt is skipped, not deferred, so Deferred no longer bounds
	// the blocking edges.
	CompleteOnly bool
	// disablePrefixCache turns off the weight-list-prefix cache that
	// shed epochs reuse across repairs (satisfaction.PrefixCache). The
	// cache is exact — results are bit-identical either way — so only
	// the in-package A/B equivalence test sets it.
	disablePrefixCache bool
	// Obs, when non-nil, receives one "dynamic.repair" span per epoch
	// and a "dynamic.shed" point per shed decision.
	Obs *obs.Recorder
	// Metrics, when non-nil, receives epoch/region/latency instruments.
	Metrics *metrics.Registry
}

func (o EngineOptions) validate() error {
	if o.RepairRounds < 0 {
		return fmt.Errorf("dynamic: RepairRounds %d negative", o.RepairRounds)
	}
	if o.ShedDepth < 0 {
		return fmt.Errorf("dynamic: ShedDepth %d negative", o.ShedDepth)
	}
	return nil
}

// Engine maintains the live matching under a streaming update feed.
// It is single-goroutine by design (determinism is the contract);
// Workers only parallelizes table builds behind the internal/par
// bit-identity guarantee.
type Engine struct {
	o    *Overlay
	opts EngineOptions

	now       float64
	busyUntil float64 // end of the in-flight epoch
	backoff   float64 // current collision backoff (0 = none pending)
	retries   int     // collisions since the last flush

	pending  []TimedEvent
	deferred map[graph.Edge]bool

	// cache is the cross-epoch weight-list-prefix cache shed scans
	// resume from (nil when opts.disablePrefixCache). Every matching
	// removal and every rejoin must invalidate through it — the
	// invalidation sites are the ones DESIGN.md §13 lists.
	cache       *satisfaction.PrefixCache
	lastSkipped int64

	incarnation []uint64
	epoch       int
	records     []EpochRecord

	totalRetries int64
	totalSheds   int64

	// Region scratch, reused across epochs.
	inRegion []bool
	region   []graph.NodeID

	// Metrics instruments (nil when opts.Metrics is nil).
	mEpochs, mUpdates, mSheds, mRetries *metrics.Counter
	mPrefixSkip                         *metrics.Counter
	mLatency, mRegion                   *metrics.Histogram
	mDeferred, mQueue                   *metrics.Gauge
}

// swapHook, when non-nil, observes every preemptive swap: the added
// edge's key and the keys of the connection(s) it displaced. Test-only;
// the nil check keeps the hot path allocation- and behavior-free.
var swapHook func(added satisfaction.WeightKey, dropped []satisfaction.WeightKey)

// NewEngine starts an engine over a fresh all-alive overlay (parallel
// table + LIC build under opts.Workers).
func NewEngine(s *pref.System, opts EngineOptions) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := s.Graph().NumNodes()
	e := &Engine{
		o:           newOverlay(s, opts.Workers),
		opts:        opts,
		deferred:    make(map[graph.Edge]bool),
		incarnation: make([]uint64, n),
		inRegion:    make([]bool, n),
	}
	if !opts.disablePrefixCache {
		e.cache = satisfaction.NewPrefixCache(s, e.o.tbl)
	}
	if reg := opts.Metrics; reg != nil {
		e.mEpochs = reg.Counter("dynamic_epochs_total", "repair epochs launched")
		e.mUpdates = reg.Counter("dynamic_updates_total", "updates applied")
		e.mSheds = reg.Counter("dynamic_sheds_total", "epochs shed to backup placement")
		e.mRetries = reg.Counter("dynamic_retries_total", "flush collisions with an in-flight epoch")
		e.mPrefixSkip = reg.Counter("dynamic_prefix_skipped_total", "weight-list entries shed scans resumed past via the prefix cache")
		e.mLatency = reg.Histogram("dynamic_epoch_latency", "virtual repair latency per epoch",
			[]float64{1, 2, 4, 8, 16, 32, 64})
		e.mRegion = reg.Histogram("dynamic_region_size", "repair-region size per epoch",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
		e.mDeferred = reg.Gauge("dynamic_deferred_edges", "deferred-candidate backlog (blocking-edge bound)")
		e.mQueue = reg.Gauge("dynamic_queue_depth", "pending updates at last submit")
	}
	return e, nil
}

// Overlay exposes the live overlay (shared; treat as read-only).
func (e *Engine) Overlay() *Overlay { return e.o }

// Now returns the engine's virtual clock.
func (e *Engine) Now() float64 { return e.now }

// Records returns the per-epoch telemetry rows (shared slice).
func (e *Engine) Records() []EpochRecord { return e.records }

// PendingDepth returns the current update-queue depth.
func (e *Engine) PendingDepth() int { return len(e.pending) }

// DeferredBound returns the current certified blocking-edge bound —
// the number of parked candidate edges awaiting a future epoch.
func (e *Engine) DeferredBound() int { return len(e.deferred) }

// TotalRetries returns the cumulative flush-collision count.
func (e *Engine) TotalRetries() int64 { return e.totalRetries }

// TotalSheds returns how many epochs degraded to backup placement.
func (e *Engine) TotalSheds() int64 { return e.totalSheds }

// Incarnation returns node x's membership version: bumped on every
// applied join or leave, so a reader can disambiguate crossing
// leave/join pairs exactly as dlid's repair epochs do.
func (e *Engine) Incarnation(x graph.NodeID) uint64 { return e.incarnation[x] }

// SubmitJoin queues a join of node x at virtual time at.
func (e *Engine) SubmitJoin(at float64, x graph.NodeID) error {
	return e.submit(TimedEvent{At: at, Kind: UpdateJoin, Node: x})
}

// SubmitLeave queues a leave of node x at virtual time at.
func (e *Engine) SubmitLeave(at float64, x graph.NodeID) error {
	return e.submit(TimedEvent{At: at, Kind: UpdateLeave, Node: x})
}

// SubmitRerank queues a preference-system swap (same graph required)
// at virtual time at; dirty names the nodes whose lists or quotas
// changed.
func (e *Engine) SubmitRerank(at float64, s2 *pref.System, dirty []graph.NodeID) error {
	return e.submit(TimedEvent{At: at, Kind: UpdateRerank, System: s2, Dirty: dirty})
}

// Step repairs one update in an epoch of its own and returns that
// epoch's record: it submits u at the engine's clock, whatever u.At
// says, and drains. Drivers that score the overlay after every event
// step through their feed this way.
func (e *Engine) Step(u TimedEvent) (EpochRecord, error) {
	u.At = e.now
	if err := e.submit(u); err != nil {
		return EpochRecord{}, err
	}
	e.Drain()
	return e.records[len(e.records)-1], nil
}

// submit is the one gate every update passes. It rejects an update the
// engine could not apply — a time that is not finite or lies before
// the clock, a node out of range, a rerank without a system over the
// engine's graph or naming a dirty node out of range, an unknown kind —
// before it touches the queue or the clock.
func (e *Engine) submit(u TimedEvent) error {
	n := len(e.inRegion)
	inRange := func(x graph.NodeID) error {
		if x < 0 || x >= n {
			return fmt.Errorf("dynamic: %v of node %d out of range [0,%d)", u.Kind, x, n)
		}
		return nil
	}
	if math.IsNaN(u.At) || math.IsInf(u.At, 0) {
		return fmt.Errorf("dynamic: %v at t=%v: time is not finite", u.Kind, u.At)
	}
	if u.At < e.now {
		return fmt.Errorf("dynamic: update at t=%v submitted after engine clock t=%v", u.At, e.now)
	}
	switch u.Kind {
	case UpdateJoin, UpdateLeave:
		if err := inRange(u.Node); err != nil {
			return err
		}
	case UpdateRerank:
		if u.System == nil {
			return fmt.Errorf("dynamic: rerank with nil system")
		}
		if u.System.Graph() != e.o.s.Graph() {
			return fmt.Errorf("dynamic: rerank requires the same underlying graph")
		}
		for _, x := range u.Dirty {
			if err := inRange(x); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("dynamic: unknown update kind %v", u.Kind)
	}
	e.now = u.At
	e.pending = append(e.pending, u)
	if e.mQueue != nil {
		e.mQueue.Set(float64(len(e.pending)))
	}
	e.tryFlush()
	return nil
}

// notBefore returns the earliest time the next flush may launch.
func (e *Engine) notBefore() float64 { return e.busyUntil + e.backoff }

// tryFlush launches an epoch if the engine is idle; a collision with
// an in-flight epoch records a retry and doubles the backoff.
func (e *Engine) tryFlush() {
	if len(e.pending) == 0 {
		return
	}
	if e.now < e.notBefore() {
		e.retries++
		e.totalRetries++
		if e.mRetries != nil {
			e.mRetries.Inc()
		}
		if e.backoff == 0 {
			e.backoff = retryBaseDelay
		} else {
			e.backoff = min(e.backoff*2, retryMaxDelay)
		}
		return
	}
	e.flush()
}

// Drain flushes until the queue is empty and the deferred backlog has
// had one final full chance, advancing the virtual clock past busy
// windows instead of recording collisions.
func (e *Engine) Drain() {
	for len(e.pending) > 0 {
		if e.now < e.notBefore() {
			e.now = e.notBefore()
		}
		e.flush()
	}
	if e.now < e.busyUntil {
		e.now = e.busyUntil
	}
}

// Heal runs repair epochs with no new updates until the deferred
// backlog drains. Termination: every truncated epoch that re-defers
// work performed at least one swap, and each swap strictly raises the
// matching's lexicographic weight vector, so the backlog cannot
// persist forever; the stall check is a safety valve, not a path taken
// by any budget ≥ 1. Returns the number of healing epochs run.
func (e *Engine) Heal() int {
	ran := 0
	for len(e.deferred) > 0 {
		before := len(e.deferred)
		if e.now < e.busyUntil {
			e.now = e.busyUntil
		}
		e.flush()
		ran++
		r := e.records[len(e.records)-1]
		if len(e.deferred) >= before && r.Stats.Added+r.Stats.Removed == 0 {
			break
		}
	}
	return ran
}

// flush coalesces the pending queue into one repair epoch.
func (e *Engine) flush() {
	batch := e.pending
	e.pending = nil
	e.epoch++
	rec := EpochRecord{
		Epoch:    e.epoch,
		Start:    e.now,
		Batch:    len(batch),
		Retries:  e.retries,
		Blocking: -1,
	}
	e.retries = 0
	e.backoff = 0
	shed := e.opts.ShedDepth > 0 && len(batch) > e.opts.ShedDepth
	rec.Shed = shed
	sid := e.opts.Obs.OpenSpan(0, "dynamic.repair",
		fmt.Sprintf("epoch=%d batch=%d shed=%v", e.epoch, len(batch), shed), rec.Start)

	// Phase 1 — apply the batch in arrival order. Membership cleanup
	// always runs, shed or not: a leave dropping its edges is a
	// correctness action, never sheddable work.
	var seeds []graph.NodeID
	st := &rec.Stats
	for _, u := range batch {
		switch u.Kind {
		case UpdateLeave:
			if !e.o.alive[u.Node] {
				continue // stale: already down
			}
			e.o.alive[u.Node] = false
			e.incarnation[u.Node]++
			freed := e.o.m.Connections(u.Node)
			for _, v := range freed {
				e.o.m.Remove(u.Node, v)
				e.invalidateEdge(u.Node, v)
				st.Removed++
			}
			seeds = append(seeds, freed...)
		case UpdateJoin:
			if e.o.alive[u.Node] {
				continue // stale: already up
			}
			e.o.alive[u.Node] = true
			e.incarnation[u.Node]++
			if e.cache != nil {
				e.cache.InvalidateNode(u.Node)
			}
			seeds = append(seeds, u.Node)
		case UpdateRerank:
			e.o.s = u.System
			e.o.tbl = satisfaction.NewTableParallel(u.System, e.opts.Workers)
			// A new table reorders every weight list: the old cursors
			// are meaningless, so the cache restarts from scratch.
			if e.cache != nil {
				e.cache = satisfaction.NewPrefixCache(u.System, e.o.tbl)
				e.lastSkipped = 0
			}
			for _, x := range u.Dirty {
				seeds = append(seeds, x)
				for e.o.m.DegreeOf(x) > u.System.Quota(x) {
					v := e.o.lightestConnection(x)
					e.o.m.Remove(x, v)
					st.Removed++
					seeds = append(seeds, v)
				}
			}
		}
		if e.mUpdates != nil {
			e.mUpdates.Inc()
		}
	}

	// Phase 2 — repair within the region, full-budget, truncated, or
	// shed.
	if shed {
		e.totalSheds++
		if e.mSheds != nil {
			e.mSheds.Inc()
		}
		e.opts.Obs.Point(0, "dynamic.shed",
			fmt.Sprintf("epoch=%d depth=%d threshold=%d", e.epoch, len(batch), e.opts.ShedDepth), rec.Start)
		e.shedRepair(seeds, &rec)
	} else {
		e.repairBounded(seeds, &rec)
	}
	rec.Region = len(e.region)
	for _, x := range e.region {
		e.inRegion[x] = false
	}
	e.region = e.region[:0]
	e.pruneDeferred()
	rec.Deferred = len(e.deferred)
	if e.opts.MeasureStability {
		rec.Blocking = e.o.BlockingEdges()
	}

	rec.End = rec.Start + epochBaseCost + epochRoundCost*float64(rec.Rounds) +
		epochExaminedCost*float64(rec.Stats.Examined)
	e.busyUntil = rec.End
	e.records = append(e.records, rec)
	e.opts.Obs.CloseSpan(0, sid,
		fmt.Sprintf("rounds=%d region=%d deferred=%d", rec.Rounds, rec.Region, rec.Deferred), rec.End)
	if e.mEpochs != nil {
		e.mEpochs.Inc()
		e.mLatency.Observe(rec.Latency())
		e.mRegion.Observe(float64(rec.Region))
		e.mDeferred.Set(float64(rec.Deferred))
		e.mQueue.Set(0)
		if e.cache != nil {
			if s := e.cache.SkippedTotal(); s > e.lastSkipped {
				e.mPrefixSkip.Add(s - e.lastSkipped)
				e.lastSkipped = s
			}
		}
	}
}

// invalidateEdge forwards a matching removal to the prefix cache: both
// endpoints must rescan the edge's weight-list position.
func (e *Engine) invalidateEdge(u, v graph.NodeID) {
	if e.cache != nil {
		e.cache.InvalidateEdge(u, v)
	}
}

// mark adds x to the current repair region.
func (e *Engine) mark(x graph.NodeID) {
	if !e.inRegion[x] {
		e.inRegion[x] = true
		e.region = append(e.region, x)
	}
}

// takeDeferred drains the deferred set in canonical edge order (the
// map's iteration order must never reach the repair heap: heap pops
// are order-insensitive for a fixed key set, but Examined counts and
// region marking follow processing order, so the hand-off is sorted).
func (e *Engine) takeDeferred() []graph.Edge {
	if len(e.deferred) == 0 {
		return nil
	}
	edges := make([]graph.Edge, 0, len(e.deferred))
	for eg := range e.deferred {
		edges = append(edges, eg)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	clear(e.deferred)
	return edges
}

// pruneDeferred drops deferred candidates that died or got matched —
// the published bound stays honest.
func (e *Engine) pruneDeferred() {
	for eg := range e.deferred {
		if !e.o.alive[eg.U] || !e.o.alive[eg.V] || e.o.m.Has(eg.U, eg.V) {
			delete(e.deferred, eg)
		}
	}
}

// candidateHeap orders candidate edges heaviest-first.
type candidateHeap struct {
	keys []satisfaction.WeightKey
}

func (h candidateHeap) Len() int            { return len(h.keys) }
func (h candidateHeap) Less(i, j int) bool  { return h.keys[i].Heavier(h.keys[j]) }
func (h candidateHeap) Swap(i, j int)       { h.keys[i], h.keys[j] = h.keys[j], h.keys[i] }
func (h *candidateHeap) Push(x interface{}) { h.keys = append(h.keys, x.(satisfaction.WeightKey)) }
func (h *candidateHeap) Pop() interface{} {
	old := h.keys
	n := len(old)
	k := old[n-1]
	h.keys = old[:n-1]
	return k
}

// repairBounded runs repair from the seeds plus the deferred backlog,
// sweeping cascade rounds until quiescence or the round budget.
//
// Invariant (the certified bound, preemptive repair only: completion
// repair skips an edge that would preempt, so that edge may stay
// blocking without being parked): entering an epoch, every blocking
// edge of the live matching is in the deferred set; edges that *become*
// blocking through this batch are incident to a seed. During repair an
// edge can only become blocking when an endpoint loses a connection,
// and every such loss re-pushes the loser's unmatched edges. So at any
// stopping point, blocking ⊆ {unprocessed candidates}, which is
// exactly what truncation parks in deferred: Blocking ≤ Deferred holds
// after every epoch, and a full-budget epoch (empty heaps, empty
// deferred) has zero blocking edges — i.e. the unique stable matching
// of the live edge set under the inherited order, LiveLICInherited.
func (e *Engine) repairBounded(seeds []graph.NodeID, rec *EpochRecord) {
	g := e.o.s.Graph()
	st := &rec.Stats
	cur, next := &candidateHeap{}, &candidateHeap{}
	pushed := make(map[graph.Edge]bool)
	pushNode := func(x graph.NodeID) {
		if !e.o.alive[x] {
			return
		}
		e.mark(x)
		for _, nb := range g.Neighbors(x) {
			eg := graph.Edge{U: x, V: nb}.Normalize()
			if !pushed[eg] {
				pushed[eg] = true
				heap.Push(cur, e.o.tbl.Key(eg.U, eg.V))
			}
		}
	}
	for _, x := range seeds {
		pushNode(x)
	}
	for _, eg := range e.takeDeferred() {
		if !e.o.alive[eg.U] || !e.o.alive[eg.V] || e.o.m.Has(eg.U, eg.V) {
			continue
		}
		if !pushed[eg] {
			pushed[eg] = true
			heap.Push(cur, e.o.tbl.Key(eg.U, eg.V))
		}
	}

	budget := e.opts.RepairRounds
	for cur.Len() > 0 {
		if budget > 0 && rec.Rounds >= budget {
			rec.Truncated = true
			break
		}
		rec.Rounds++
		for cur.Len() > 0 {
			k := heap.Pop(cur).(satisfaction.WeightKey)
			eg := k.Edge()
			st.Examined++
			if !e.o.alive[eg.U] || !e.o.alive[eg.V] || e.o.m.Has(eg.U, eg.V) {
				continue
			}
			e.mark(eg.U)
			e.mark(eg.V)
			uFree := e.o.m.DegreeOf(eg.U) < e.o.s.Quota(eg.U)
			vFree := e.o.m.DegreeOf(eg.V) < e.o.s.Quota(eg.V)
			if uFree && vFree {
				e.o.m.Add(eg.U, eg.V)
				st.Added++
				continue
			}
			if e.opts.CompleteOnly {
				continue
			}
			// Preemption: heavier than the lightest connection at
			// every full endpoint, else skip.
			var drops []graph.Edge
			ok := true
			for _, x := range []graph.NodeID{eg.U, eg.V} {
				if e.o.m.DegreeOf(x) < e.o.s.Quota(x) {
					continue
				}
				if e.o.m.DegreeOf(x) == 0 {
					ok = false // quota 0: can never accept
					break
				}
				l := e.o.lightestConnection(x)
				if !k.Heavier(e.o.tbl.Key(x, l)) {
					ok = false
					break
				}
				drops = append(drops, graph.Edge{U: x, V: l})
			}
			if !ok {
				continue
			}
			if swapHook != nil {
				dk := make([]satisfaction.WeightKey, 0, len(drops))
				for _, d := range drops {
					if e.o.m.Has(d.U, d.V) {
						dk = append(dk, e.o.tbl.Key(d.U, d.V))
					}
				}
				swapHook(k, dk)
			}
			for _, d := range drops {
				if e.o.m.Has(d.U, d.V) { // both endpoints may share the same lightest edge
					e.o.m.Remove(d.U, d.V)
					e.invalidateEdge(d.U, d.V)
					st.Removed++
					partner := d.V
					e.mark(partner)
					// Re-seed the displaced partner in the next round:
					// its unmatched edges may now be blocking.
					for _, nb := range g.Neighbors(partner) {
						pe := graph.Edge{U: partner, V: nb}.Normalize()
						if !e.o.m.Has(pe.U, pe.V) {
							heap.Push(next, e.o.tbl.Key(pe.U, pe.V))
						}
					}
				}
			}
			e.o.m.Add(eg.U, eg.V)
			st.Added++
		}
		cur, next = next, cur
	}
	// Park whatever the budget left behind.
	for _, h := range []*candidateHeap{cur, next} {
		for _, k := range h.keys {
			eg := k.Edge()
			if e.o.alive[eg.U] && e.o.alive[eg.V] && !e.o.m.Has(eg.U, eg.V) {
				e.deferred[eg] = true
			}
		}
	}
}

// shedRepair is the overload path: one round of region-local backup
// placement. Every free region node proposes to its heaviest free
// slots' worth of alive unmatched neighbors; proposals are granted
// heaviest-first while both endpoints still have free quota. A node
// proposes at most (quota − degree) edges and a grant re-checks both
// quotas, so validity is structural. All candidate edges incident to
// the region that did not land — plus the untouched deferred backlog —
// stay parked, keeping the blocking-edge bound intact.
func (e *Engine) shedRepair(seeds []graph.NodeID, rec *EpochRecord) {
	g := e.o.s.Graph()
	st := &rec.Stats
	rec.Rounds = 1
	for _, x := range seeds {
		if e.o.alive[x] {
			e.mark(x)
		}
	}
	var props []satisfaction.WeightKey
	for _, x := range e.region {
		free := e.o.s.Quota(x) - e.o.m.DegreeOf(x)
		if free <= 0 {
			continue
		}
		neigh := e.o.tbl.SortedNeighbors(e.o.s, x)
		// Resume past the prefix previous epochs proved exhausted. The
		// cursor may only extend over entries skipped here for a
		// persistent reason (dead neighbor or matched edge) with no
		// consumed candidate in between — consumed entries may still be
		// free next epoch and must be rescanned.
		start := 0
		if e.cache != nil {
			start = e.cache.Start(x)
		}
		run, contig := start, true
		cnt := 0
		for pos := start; pos < len(neigh); pos++ {
			if cnt >= free {
				break
			}
			nb := neigh[pos]
			if !e.o.alive[nb] || e.o.m.Has(x, nb) {
				if contig {
					run = pos + 1
				}
				continue
			}
			contig = false
			st.Examined++
			props = append(props, e.o.tbl.Key(x, nb))
			cnt++
		}
		if e.cache != nil {
			e.cache.Advance(x, run)
		}
	}
	sort.Slice(props, func(i, j int) bool { return props[i].Heavier(props[j]) })
	for _, k := range props {
		eg := k.Edge()
		if e.o.m.Has(eg.U, eg.V) {
			continue // proposed from both sides
		}
		if e.o.m.DegreeOf(eg.U) < e.o.s.Quota(eg.U) && e.o.m.DegreeOf(eg.V) < e.o.s.Quota(eg.V) {
			e.o.m.Add(eg.U, eg.V)
			st.Added++
		}
	}
	// Defer every unresolved candidate incident to the region: the
	// bound must cover everything a bounded epoch would have examined.
	for _, x := range e.region {
		for _, nb := range g.Neighbors(x) {
			eg := graph.Edge{U: x, V: nb}.Normalize()
			if e.o.alive[eg.U] && e.o.alive[eg.V] && !e.o.m.Has(eg.U, eg.V) {
				e.deferred[eg] = true
			}
		}
	}
}

// LiveLICInherited computes the LIC matching of the live edge set
// under the current weight table — weights inherited from the full
// preference lists, unlike LiveLIC, which models the surviving peers
// re-ranking each other from scratch (the paper's quality yardstick).
// Under the inherited order the stable matching of the live subgraph
// is unique and this greedy scan constructs it, so it is the exact
// fixed point full-budget repair converges to.
func (o *Overlay) LiveLICInherited() *matching.Matching {
	g := o.s.Graph()
	keys := make([]satisfaction.WeightKey, 0, g.NumEdges())
	for id := 0; id < g.NumEdges(); id++ {
		eg := g.EdgeByID(graph.EdgeID(id))
		if o.alive[eg.U] && o.alive[eg.V] {
			keys = append(keys, o.tbl.KeyByID(graph.EdgeID(id)))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Heavier(keys[j]) })
	quota := make([]int, g.NumNodes())
	for i := range quota {
		quota[i] = o.s.Quota(i)
	}
	m := matching.NewDense(g)
	for _, k := range keys {
		if quota[k.U] > 0 && quota[k.V] > 0 {
			m.Add(k.U, k.V)
			quota[k.U]--
			quota[k.V]--
		}
	}
	return m
}

// BlockingEdges counts live unmatched edges that are blocking under
// the shared weight order: both endpoints would accept — an endpoint
// accepts when it has free quota, or when the edge is strictly heavier
// than its lightest current connection. Zero blocking edges means the
// matching is the unique stable (locally-heaviest) matching of the
// live subgraph.
func (o *Overlay) BlockingEdges() int {
	g := o.s.Graph()
	count := 0
	for id := 0; id < g.NumEdges(); id++ {
		eg := g.EdgeByID(graph.EdgeID(id))
		if !o.alive[eg.U] || !o.alive[eg.V] || o.m.Has(eg.U, eg.V) {
			continue
		}
		k := o.tbl.Key(eg.U, eg.V)
		blocking := true
		for _, x := range []graph.NodeID{eg.U, eg.V} {
			if o.m.DegreeOf(x) < o.s.Quota(x) {
				continue // free: accepts
			}
			if o.m.DegreeOf(x) == 0 || !k.Heavier(o.tbl.Key(x, o.lightestConnection(x))) {
				blocking = false
				break
			}
		}
		if blocking {
			count++
		}
	}
	return count
}
