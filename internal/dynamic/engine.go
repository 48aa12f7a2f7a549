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

	// pending queues updates for the next flush; spare is the storage
	// of the last flushed batch, which the next flush queues into.
	pending, spare []TimedEvent
	deferred       map[graph.EdgeID]struct{}

	epoch   int
	records []EpochRecord

	totalRetries int64
	totalSheds   int64

	// Region scratch, reused across epochs.
	inRegion []bool
	region   []graph.NodeID

	// Repair scratch, reused across epochs. pushedAt[id] == stamp marks
	// edge id as queued in the current epoch's initial push set, and
	// bumping stamp clears every mark at once. pushedAt is allocated on
	// the first repair, so an engine that never repairs holds no
	// per-edge array.
	seeds     []graph.NodeID
	cur, next candidateQueue
	pushedAt  []uint32
	stamp     uint32

	// Metrics instruments (nil when opts.Metrics is nil).
	mEpochs, mUpdates, mSheds, mRetries *metrics.Counter
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
	e := &Engine{
		o:        newOverlay(s, opts.Workers),
		opts:     opts,
		deferred: make(map[graph.EdgeID]struct{}),
		inRegion: make([]bool, s.Graph().NumNodes()),
	}
	if reg := opts.Metrics; reg != nil {
		e.mEpochs = reg.Counter("dynamic_epochs_total", "repair epochs launched")
		e.mUpdates = reg.Counter("dynamic_updates_total", "updates applied")
		e.mSheds = reg.Counter("dynamic_sheds_total", "epochs shed to backup placement")
		e.mRetries = reg.Counter("dynamic_retries_total", "flush collisions with an in-flight epoch")
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
	e.pending = e.spare[:0]
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
	var sid obs.SpanID
	if e.opts.Obs != nil {
		sid = e.opts.Obs.OpenSpan(0, "dynamic.repair",
			fmt.Sprintf("epoch=%d batch=%d shed=%v", e.epoch, len(batch), shed), rec.Start)
	}

	// Phase 1 — apply the batch in arrival order. Membership cleanup
	// always runs, shed or not: a leave dropping its edges is a
	// correctness action, never sheddable work.
	seeds := e.seeds[:0]
	st := &rec.Stats
	for _, u := range batch {
		switch u.Kind {
		case UpdateLeave:
			if !e.o.alive[u.Node] {
				continue // stale: already down
			}
			e.o.alive[u.Node] = false
			// Copy the partners out first: each Remove edits the list.
			start := len(seeds)
			seeds = append(seeds, e.o.m.Partners(u.Node)...)
			for _, v := range seeds[start:] {
				e.o.m.Remove(u.Node, v)
				st.Removed++
			}
		case UpdateJoin:
			if e.o.alive[u.Node] {
				continue // stale: already up
			}
			e.o.alive[u.Node] = true
			seeds = append(seeds, u.Node)
		case UpdateRerank:
			e.o.s = u.System
			e.o.tbl = satisfaction.NewTableParallel(u.System, e.opts.Workers)
			// The new table re-weights every connection of a dirty node,
			// so the partners it keeps are seeds too: a kept connection
			// that got lighter can turn an unmatched edge at the partner
			// blocking.
			for _, x := range u.Dirty {
				seeds = append(seeds, x)
				for e.o.m.DegreeOf(x) > u.System.Quota(x) {
					id := e.o.lightestEdge(x)
					e.o.m.RemoveID(id)
					st.Removed++
					seeds = append(seeds, u.System.Graph().OtherEndpoint(id, x))
				}
				seeds = append(seeds, e.o.m.Partners(x)...)
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
		if e.opts.Obs != nil {
			e.opts.Obs.Point(0, "dynamic.shed",
				fmt.Sprintf("epoch=%d depth=%d threshold=%d", e.epoch, len(batch), e.opts.ShedDepth), rec.Start)
		}
		e.shedRepair(seeds, &rec)
	} else {
		e.repairBounded(seeds, &rec)
	}
	e.seeds = seeds
	clear(batch) // drop the batch's systems before its storage is reused
	e.spare = batch[:0]
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
	if e.opts.Obs != nil {
		e.opts.Obs.CloseSpan(0, sid,
			fmt.Sprintf("rounds=%d region=%d deferred=%d", rec.Rounds, rec.Region, rec.Deferred), rec.End)
	}
	if e.mEpochs != nil {
		e.mEpochs.Inc()
		e.mLatency.Observe(rec.Latency())
		e.mRegion.Observe(float64(rec.Region))
		e.mDeferred.Set(float64(rec.Deferred))
		e.mQueue.Set(0)
	}
}

// mark adds x to the current repair region.
func (e *Engine) mark(x graph.NodeID) {
	if !e.inRegion[x] {
		e.inRegion[x] = true
		e.region = append(e.region, x)
	}
}

// pruneDeferred drops deferred candidates that died or got matched —
// the published bound stays honest.
func (e *Engine) pruneDeferred() {
	g := e.o.s.Graph()
	for id := range e.deferred {
		eg := g.EdgeByID(id)
		if !e.o.alive[eg.U] || !e.o.alive[eg.V] || e.o.m.HasID(id) {
			delete(e.deferred, id)
		}
	}
}

// park parks edge id as an unresolved candidate if it is live and
// unmatched.
func (e *Engine) park(id graph.EdgeID) {
	eg := e.o.s.Graph().EdgeByID(id)
	if e.o.alive[eg.U] && e.o.alive[eg.V] && !e.o.m.HasID(id) {
		e.deferred[id] = struct{}{}
	}
}

// candidate is one repair-queue entry: an edge and its packed order
// key. (ord, id) ascending is exactly WeightKey.Heavier's heaviest-first
// order (satisfaction.Table.OrderKeys), so comparing two candidates
// costs two integer compares and no table lookup.
type candidate struct {
	ord uint64
	id  graph.EdgeID
}

func (a candidate) before(b candidate) bool {
	return a.ord < b.ord || a.ord == b.ord && a.id < b.id
}

// candidateQueue is a binary min-heap of candidates: it pops the
// heaviest edge first. Under a strict total order the pop sequence is
// fixed by the multiset pushed, whatever the push order.
type candidateQueue []candidate

func (q *candidateQueue) push(c candidate) {
	*q = append(*q, c)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = c
}

func (q *candidateQueue) pop() candidate {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// nextStamp opens a new epoch of the push set, allocating pushedAt on
// the first repair and clearing it only when the stamp wraps.
func (e *Engine) nextStamp() {
	if e.pushedAt == nil {
		e.pushedAt = make([]uint32, e.o.s.Graph().NumEdges())
	}
	e.stamp++
	if e.stamp == 0 {
		clear(e.pushedAt)
		e.stamp = 1
	}
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
//
// The loop works in EdgeIDs off the graph's incidence arrays, and every
// queue, the push set and the seed list are engine scratch, so an
// epoch allocates nothing once the scratch has grown.
func (e *Engine) repairBounded(seeds []graph.NodeID, rec *EpochRecord) {
	o := e.o
	g := o.s.Graph()
	st := &rec.Stats
	cur, next := &e.cur, &e.next
	e.nextStamp()
	pushOnce := func(id graph.EdgeID) {
		if e.pushedAt[id] != e.stamp {
			e.pushedAt[id] = e.stamp
			cur.push(o.candidate(id))
		}
	}
	for _, x := range seeds {
		if !o.alive[x] {
			continue
		}
		e.mark(x)
		for _, id := range g.IncidentEdges(x) {
			pushOnce(id)
		}
	}
	// The deferred backlog joins the push set. Map order cannot reach
	// the repair: the queue pops in the total order whatever the push
	// order, and these pushes mark no region node.
	for id := range e.deferred {
		eg := g.EdgeByID(id)
		if o.alive[eg.U] && o.alive[eg.V] && !o.m.HasID(id) {
			pushOnce(id)
		}
	}
	clear(e.deferred)

	budget := e.opts.RepairRounds
	for len(*cur) > 0 {
		if budget > 0 && rec.Rounds >= budget {
			rec.Truncated = true
			break
		}
		rec.Rounds++
		for len(*cur) > 0 {
			id := cur.pop().id
			eg := g.EdgeByID(id)
			st.Examined++
			if !o.alive[eg.U] || !o.alive[eg.V] || o.m.HasID(id) {
				continue
			}
			e.mark(eg.U)
			e.mark(eg.V)
			uFree := o.m.DegreeOf(eg.U) < o.s.Quota(eg.U)
			vFree := o.m.DegreeOf(eg.V) < o.s.Quota(eg.V)
			if uFree && vFree {
				o.m.AddID(id)
				st.Added++
				continue
			}
			if e.opts.CompleteOnly {
				continue
			}
			// Preemption: heavier than the lightest connection at
			// every full endpoint, else skip. drops[k] is the
			// connection ends[k] gives up (noEdge if it has room); the
			// two differ, since neither is the unmatched edge id.
			ends := [2]graph.NodeID{eg.U, eg.V}
			var drops [2]graph.EdgeID
			ok := true
			for k, x := range ends {
				if drops[k], ok = o.displaced(x, id); !ok {
					break
				}
			}
			if !ok {
				continue
			}
			if swapHook != nil {
				dk := make([]satisfaction.WeightKey, 0, 2)
				for _, d := range drops {
					if d != noEdge {
						dk = append(dk, o.tbl.KeyByID(d))
					}
				}
				swapHook(o.tbl.KeyByID(id), dk)
			}
			for k, d := range drops {
				if d == noEdge {
					continue
				}
				partner := g.OtherEndpoint(d, ends[k])
				o.m.RemoveID(d)
				st.Removed++
				e.mark(partner)
				// Re-seed the displaced partner in the next round:
				// its unmatched edges may now be blocking.
				for _, pid := range g.IncidentEdges(partner) {
					if !o.m.HasID(pid) {
						next.push(o.candidate(pid))
					}
				}
			}
			o.m.AddID(id)
			st.Added++
		}
		cur, next = next, cur
	}
	// Park whatever the budget left behind.
	for _, q := range [2]*candidateQueue{cur, next} {
		for _, c := range *q {
			e.park(c.id)
		}
		*q = (*q)[:0]
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
	// Proposals queue heaviest first in the repair queue, which a shed
	// epoch leaves free.
	props := &e.cur
	for _, x := range e.region {
		free := e.o.s.Quota(x) - e.o.m.DegreeOf(x)
		if free <= 0 {
			continue
		}
		neigh := e.o.tbl.SortedNeighbors(e.o.s, x)
		inc := e.o.tbl.SortedIncident(e.o.s, x)
		for pos := 0; pos < len(neigh) && free > 0; pos++ {
			if !e.o.alive[neigh[pos]] || e.o.m.HasID(inc[pos]) {
				continue
			}
			st.Examined++
			props.push(e.o.candidate(inc[pos]))
			free--
		}
	}
	for len(*props) > 0 {
		id := props.pop().id
		if e.o.m.HasID(id) {
			continue // proposed from both sides
		}
		eg := g.EdgeByID(id)
		if e.o.m.DegreeOf(eg.U) < e.o.s.Quota(eg.U) && e.o.m.DegreeOf(eg.V) < e.o.s.Quota(eg.V) {
			e.o.m.AddID(id)
			st.Added++
		}
	}
	// Defer every unresolved candidate incident to the region: the
	// bound must cover everything a bounded epoch would have examined.
	for _, x := range e.region {
		for _, id := range g.IncidentEdges(x) {
			e.park(id)
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
	for i := range g.NumEdges() {
		id := graph.EdgeID(i)
		eg := g.EdgeByID(id)
		if !o.alive[eg.U] || !o.alive[eg.V] || o.m.HasID(id) {
			continue
		}
		if _, ok := o.displaced(eg.U, id); !ok {
			continue
		}
		if _, ok := o.displaced(eg.V, id); ok {
			count++
		}
	}
	return count
}
