package simnet

import (
	"fmt"
	"math"
	"sync"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/rng"
)

// LatencyFunc returns the link latency for one message from -> to. It
// must be positive. Implementations draw jitter from src, which the
// Runner seeds deterministically.
type LatencyFunc func(from, to int, src *rng.Source) float64

// UnitLatency delivers every message after exactly 1 time unit, so the
// final virtual time equals the longest causal message chain — the
// "rounds" metric of experiment E6.
func UnitLatency(int, int, *rng.Source) float64 { return 1 }

// ExponentialLatency returns latencies 1 + Exp(1)·jitter: always
// positive, unbounded, and different for every message — the harshest
// asynchrony the termination experiments use.
func ExponentialLatency(jitter float64) LatencyFunc {
	return func(_, _ int, src *rng.Source) float64 {
		return 1 + jitter*src.ExpFloat64()
	}
}

// UniformLatency returns latencies uniform in [lo, hi).
func UniformLatency(lo, hi float64) LatencyFunc {
	if !(lo > 0) || !(hi >= lo) || math.IsInf(hi, 1) {
		panic("simnet: UniformLatency needs 0 < lo <= hi < +Inf")
	}
	return func(_, _ int, src *rng.Source) float64 {
		return lo + (hi-lo)*src.Float64()
	}
}

// Admitter schedules node initialization in batches instead of the
// default all-at-time-0 sweep. The Runner calls NextBatch once before
// any delivery (the batch is initialized at time 0, in the returned
// order) and again every time the event queue drains (initialized at
// the virtual time of the last delivery); the run ends when the queue
// is empty and NextBatch returns an empty batch. Un-admitted nodes
// never received Init, so the usual deadlock check applies to them
// unless the admitter guarantees full coverage. Package lid provides
// the heaviest-frontier implementation (greedy admission scheduling).
type Admitter interface {
	NextBatch() []int
}

// Options configures a Runner.
type Options struct {
	// Seed drives the Runner's own randomness, the latency jitter. Runs
	// with equal seeds and workloads are identical.
	Seed uint64
	// Latency models per-message delay; nil means UnitLatency.
	Latency LatencyFunc
	// Policy, if non-nil, is the network's only loss and fault model:
	// every network send is submitted to it and the verdict
	// (drop/duplicate/extra-delay/corrupt) is applied on top of the
	// Latency model. nil means a lossless network, the paper's model;
	// package reliable restores that assumption on top of a dropping
	// policy. Package faults provides the standard implementation
	// (uniform loss p is faults.Spec{Drop: p}). Timers bypass the
	// policy.
	Policy LinkPolicy
	// MaxDeliveries aborts a run that exceeds this many deliveries and
	// timer firings together (default 0 = no limit); the guard the
	// non-termination tests use. Counting timer firings is what stops a
	// run whose timers rearm forever.
	MaxDeliveries int
	// Quiesce makes Run return successfully when the event queue
	// drains even if nodes never called Halt — the mode for long-lived
	// maintenance protocols (package dlid) that idle between injected
	// events rather than terminating.
	Quiesce bool
	// Metrics, if non-nil, is a shared sink registry: when Run
	// finishes (normally or not), the run's private instrument
	// registry is merged into it (counters/histograms add, gauges take
	// the max). The runner never writes to the sink on the hot path,
	// so a sink shared across runs costs nothing per message.
	Metrics *metrics.Registry
	// Obs, if non-nil, is the telemetry recorder (package obs): the
	// runner records every network send/delivery with Lamport stamps
	// carried across the link, and exposes the recorder to protocol
	// layers through the Observable context capability. nil costs one
	// branch per event.
	Obs *obs.Recorder
	// Prober, if non-nil, is the per-round stability probe: the run
	// loop calls Prober.Probe at every multiple t of Prober.Interval(),
	// after all events strictly before t have been processed (plus
	// once more after the queue drains), so a probe at t sees the state
	// "after round t". Each call carries the run's cumulative send
	// totals (SentTotals). Probes observe protocol state but must not
	// mutate it.
	Prober *obs.Prober
	// Admitter, if non-nil, batches node initialization: only released
	// nodes run Init, and further batches are released whenever the
	// event queue drains. nil keeps the canonical all-at-time-0 sweep.
	Admitter Admitter
}

// Runner is the deterministic discrete-event simulator. It counts into
// plain per-run counters (see instruments); Stats is built from them,
// and they are folded into the run's registry when Run returns.
type Runner struct {
	n       int
	opts    Options
	src     *rng.Source
	queue   *eventQueue // from queuePool; nil once Run has returned it
	seq     int
	halted  []bool
	ins     instruments
	running bool
	// stopped holds the sequence numbers of queued timer events whose
	// handle was stopped; Run drops them as they pop. Allocated on the
	// first stop, so runs that stop nothing never touch it.
	stopped map[int]bool
	// frame is the scratch buffer each send is encoded into, to bill
	// its length; reused, so billing allocates nothing per send.
	frame []byte
}

// event is one queued delivery, 48 bytes on 64-bit platforms. A timer
// or a scheduled command, delivered back to its own node, has from < 0.
type event struct {
	time     float64
	seq      int // FIFO tie-break: lower seq delivered first at equal times
	msg      Message
	lam      uint64 // sender's Lamport stamp (telemetry only; 0 when off)
	from, to int32
}

// before orders events by (time, seq). seq is unique, so the order is
// total and every correct heap pops the same sequence.
func (e *event) before(f *event) bool {
	return e.time < f.time || e.time == f.time && e.seq < f.seq
}

// eventQueue is a 4-ary min-heap of events ordered by (time, seq). It
// is hand-rolled rather than container/heap, whose interface{} boxing
// costs one allocation per message. Both sifts move a hole instead of
// swapping, and the 4-ary shape halves the depth a pop walks.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release references for GC
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// queuePool recycles event-queue backing arrays across Runners. A
// run's peak depth is not known up front, and regrowing an array from
// empty in every run would be most of a large run's allocation.
var queuePool = sync.Pool{New: func() any { return new(eventQueue) }}

// NewRunner returns a Runner for n nodes.
func NewRunner(n int, opts Options) *Runner {
	if n < 0 {
		panic("simnet: negative node count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("simnet: %d nodes exceed the event's int32 node ids", n))
	}
	if opts.Latency == nil {
		opts.Latency = UnitLatency
	}
	return &Runner{
		n:      n,
		opts:   opts,
		src:    rng.New(opts.Seed),
		queue:  queuePool.Get().(*eventQueue),
		halted: make([]bool, n),
		ins:    newInstruments(n),
	}
}

// push queues one event under the next sequence number.
func (r *Runner) push(at float64, from, to int, msg Message, lam uint64) {
	r.seq++
	r.queue.push(event{time: at, seq: r.seq, msg: msg, lam: lam, from: int32(from), to: int32(to)})
	r.ins.queueDepthMax = max(r.ins.queueDepthMax, len(*r.queue))
}

// finish publishes the run's counters and returns the queue's backing
// array to queuePool, cleared of the messages a failed run left queued.
func (r *Runner) finish() {
	r.ins.publish(r.opts.Metrics)
	q := *r.queue
	clear(q)
	*r.queue = q[:0]
	queuePool.Put(r.queue)
	r.queue = nil
}

// Metrics returns the run's private instrument registry — render or
// merge it after Run for per-run observability. It is complete once
// Run returns: the per-message counters are folded into it then.
func (r *Runner) Metrics() *metrics.Registry { return r.ins.reg }

// SentTotals returns the cumulative (messages, bytes) send counters,
// bytes being encoded frame lengths, header included — the totals
// Options.Prober receives at every probe.
func (r *Runner) SentTotals() (msgs, bytes int64) { return r.ins.sent, r.ins.sentBytes }

// runnerCtx implements Context for one delivery.
type runnerCtx struct {
	r    *Runner
	id   int
	time float64
}

func (c *runnerCtx) ID() int       { return c.id }
func (c *runnerCtx) Time() float64 { return c.time }
func (c *runnerCtx) Halt()         { c.r.halted[c.id] = true }

// Observer implements Observable, handing protocol layers the run's
// telemetry recorder (nil when telemetry is off).
func (c *runnerCtx) Observer() *obs.Recorder { return c.r.opts.Obs }

func (c *runnerCtx) Send(to int, msg Message) {
	r := c.r
	if to < 0 || to >= r.n {
		panic(fmt.Sprintf("simnet: send to %d outside [0,%d)", to, r.n))
	}
	// Every send is billed by its encoded frame, header included. A
	// type with no codec has no wire form: fail at the send site, as a
	// Cluster does.
	var err error
	if r.frame, err = AppendFrame(r.frame[:0], msg); err != nil {
		panic(fmt.Sprintf("simnet: node %d sending %T: %v", c.id, msg, err))
	}
	kind := KindOf(msg)
	r.ins.countSend(c.id, kind, len(r.frame))
	// The send is recorded (and the clock ticked) before the link
	// policy, matching the sent counters: a dropped message was still
	// sent, and its stamp documents the causal gap.
	lam := r.opts.Obs.Send(c.id, to, kind, c.time)
	copies := 1
	extra := 0.0
	if r.opts.Policy != nil {
		v := r.opts.Policy.Verdict(c.time, c.id, to, msg)
		r.ins.countVerdict(v)
		if v.Drop {
			r.ins.dropped++
			return
		}
		if v.Corrupt {
			msg = Corrupted{Original: msg}
		}
		if v.Copies > 0 {
			copies += v.Copies
		}
		if v.ExtraDelay < 0 {
			panic("simnet: negative policy delay")
		}
		extra = v.ExtraDelay
	}
	for i := 0; i < copies; i++ {
		lat := r.opts.Latency(c.id, to, r.src) + extra
		if !(lat > 0) || math.IsInf(lat, 1) {
			panic(fmt.Sprintf("simnet: latency %v is not positive and finite", lat))
		}
		r.ins.observeLatency(lat)
		r.push(c.time+lat, c.id, to, msg, lam)
	}
}

// SetTimer implements TimerSetter: deliver msg back to this node after
// delay time units. Timers are exempt from the link policy and from
// the network message statistics.
func (c *runnerCtx) SetTimer(delay float64, msg Message) {
	if !(delay > 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("simnet: SetTimer delay %v is not positive and finite", delay))
	}
	r := c.r
	r.push(c.time+delay, -1, c.id, msg, 0)
	if h := HandleOf(msg); h != nil {
		seq := r.seq
		h.Bind(func() bool {
			if r.stopped == nil {
				r.stopped = make(map[int]bool)
			}
			r.stopped[seq] = true
			r.ins.timersStopped++
			return true
		})
	}
}

// Run executes the protocol: Init on every node (in ID order, at time
// 0), then deliveries in (time, seq) order until the queue drains. It
// returns the run statistics and an error if MaxDeliveries was
// exceeded or if the queue drained while some node had not halted
// (which for a correct protocol means a node is waiting forever — the
// situation Lemma 5 excludes for LID). The first call spends the
// Runner and, on every return, publishes its counters (see Metrics);
// a later call returns the same Stats and an error.
func (r *Runner) Run(handlers []Handler) (Stats, error) {
	if r.running {
		return r.ins.stats(), fmt.Errorf("simnet: Runner is single-use")
	}
	r.running = true
	defer r.finish()
	if len(handlers) != r.n {
		return r.ins.stats(), fmt.Errorf("simnet: %d handlers for %d nodes", len(handlers), r.n)
	}
	// admit releases one admitter batch at virtual time t. Batches are
	// initialized in the returned order; double or out-of-range release
	// is an admitter bug and fails the run.
	var inited []bool
	var batches *metrics.Counter
	admit := func(t float64) (int, error) {
		batch := r.opts.Admitter.NextBatch()
		for _, id := range batch {
			if id < 0 || id >= r.n {
				return 0, fmt.Errorf("simnet: admitter released node %d outside [0,%d)", id, r.n)
			}
			if inited[id] {
				return 0, fmt.Errorf("simnet: admitter released node %d twice", id)
			}
			inited[id] = true
			handlers[id].Init(&runnerCtx{r: r, id: id, time: t})
		}
		if len(batch) > 0 {
			batches.Inc()
		}
		return len(batch), nil
	}
	if r.opts.Admitter != nil {
		inited = make([]bool, r.n)
		batches = r.ins.reg.Counter("simnet_admission_batches_total", "admission batches released by Options.Admitter")
		if _, err := admit(0); err != nil {
			return r.ins.stats(), err
		}
	} else {
		for id := 0; id < r.n; id++ {
			handlers[id].Init(&runnerCtx{r: r, id: id, time: 0})
		}
	}
	// ctx is reused across deliveries: Contexts are documented as only
	// valid for the duration of the handler call, and reusing the one
	// allocation removes per-delivery garbage.
	ctx := &runnerCtx{r: r}
	ins := &r.ins
	interval := r.opts.Prober.Interval()
	// Probe times are tick-aligned — float64(tick) * interval — instead
	// of accumulated by repeated addition: summing a non-dyadic interval
	// (0.1, 0.25·1.1, ...) drifts off the grid within a handful of
	// probes (ten 0.1-steps give 0.9999999999999999 < 1.0, an eleventh
	// sample where ten belong) and every later probe time carries the
	// accumulated error.
	probeTick := 0
	nextProbe := func() float64 { return float64(probeTick) * interval }
	probe := func() {
		r.opts.Prober.Probe(nextProbe(), ins.sent, ins.sentBytes)
		probeTick++
	}
	for {
		for len(*r.queue) > 0 {
			e := r.queue.pop()
			from := int(e.from)
			if from < 0 {
				// A timer or a scheduled command, from the node itself. A
				// stopped timer vanishes: no delivery, no count, and no
				// effect on the clock, the probes or the admission time.
				if r.stopped[e.seq] {
					delete(r.stopped, e.seq)
					continue
				}
				if h := HandleOf(e.msg); h != nil {
					h.stop = nil // fired: a later Stop reports false
				}
				from = int(e.to)
			}
			if limit := r.opts.MaxDeliveries; limit > 0 && ins.deliveries+ins.timersFired >= int64(limit) {
				return ins.stats(), fmt.Errorf("simnet: exceeded %d deliveries and timer firings", limit)
			}
			if interval > 0 {
				// A probe at t fires once every event strictly before t is
				// processed: with unit latency, probe k reports the state
				// after round k.
				for nextProbe() < e.time {
					probe()
				}
			}
			if e.from < 0 {
				ins.timersFired++
			} else {
				ins.deliveries++
				ins.receivedByNode[e.to]++
				if r.opts.Obs != nil {
					r.opts.Obs.Deliver(int(e.to), from, KindOf(e.msg), e.time, e.lam)
				}
			}
			// Events pop in time order, so the last one is the latest.
			ins.finalTime = e.time
			ctx.id, ctx.time = int(e.to), e.time
			handlers[e.to].HandleMessage(ctx, from, e.msg)
		}
		if r.opts.Admitter == nil {
			break
		}
		// Queue drained: release the next admission batch at the time
		// of the last delivery (keeping virtual time monotone). The run
		// ends when the admitter is exhausted too.
		k, err := admit(ins.finalTime)
		if err != nil {
			return ins.stats(), err
		}
		if k == 0 {
			break
		}
	}
	if interval > 0 {
		// Final sample at the next round boundary: the end state of the
		// run, after the last delivery.
		probe()
	}
	if !r.opts.Quiesce {
		for id, h := range r.halted {
			if !h {
				return ins.stats(), fmt.Errorf("simnet: node %d never halted (deadlock)", id)
			}
		}
	}
	return ins.stats(), nil
}

// Schedule enqueues an external command to be delivered to node `to`
// at the given virtual time (from == to, like a timer). Call before
// Run; commands model environment events such as churn. Scheduling
// after Run has started panics.
func (r *Runner) Schedule(at float64, to int, msg Message) {
	if r.running {
		panic("simnet: Schedule after Run started")
	}
	if to < 0 || to >= r.n {
		panic(fmt.Sprintf("simnet: Schedule to %d outside [0,%d)", to, r.n))
	}
	if !(at >= 0) || math.IsInf(at, 1) {
		panic(fmt.Sprintf("simnet: Schedule time %v is not non-negative and finite", at))
	}
	r.push(at, -1, to, msg, 0)
}
