package simnet

import (
	"fmt"
	"math"

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
	if lo <= 0 || hi < lo {
		panic("simnet: UniformLatency needs 0 < lo <= hi")
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
	// MaxDeliveries aborts a run that exceeds this many deliveries
	// (default 0 = no limit); the guard the non-termination tests use.
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

// Runner is the deterministic discrete-event simulator. Its counters
// are registry-backed (see instruments); Stats is derived from them as
// a snapshot view when Run returns.
type Runner struct {
	n       int
	opts    Options
	src     *rng.Source
	queue   eventQueue
	seq     int
	halted  []bool
	ins     *instruments
	running bool
	// stopped holds the sequence numbers of queued timer events whose
	// handle was stopped; Run drops them as they pop. Allocated on the
	// first stop, so runs that stop nothing never touch it.
	stopped map[int]bool
	// frame is the scratch buffer each send is encoded into, to bill
	// its length; reused, so billing allocates nothing per send.
	frame []byte
}

type event struct {
	time     float64
	seq      int // FIFO tie-break: lower seq delivered first at equal times
	from, to int
	msg      Message
	lam      uint64 // sender's Lamport stamp (telemetry only; 0 when off)
	timer    bool   // local timer delivery, not a network message
}

// eventQueue is a binary min-heap ordered by (time, seq). It is
// hand-rolled rather than container/heap because the interface{}
// boxing there costs one allocation per message — measurably the
// hottest path of large event-driven runs.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release references for GC
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// NewRunner returns a Runner for n nodes.
func NewRunner(n int, opts Options) *Runner {
	if n < 0 {
		panic("simnet: negative node count")
	}
	if opts.Latency == nil {
		opts.Latency = UnitLatency
	}
	return &Runner{
		n:      n,
		opts:   opts,
		src:    rng.New(opts.Seed),
		halted: make([]bool, n),
		ins:    newInstruments(n),
	}
}

// Metrics returns the run's private instrument registry — render or
// merge it after Run for per-run observability.
func (r *Runner) Metrics() *metrics.Registry { return r.ins.reg }

// SentTotals returns the cumulative (messages, bytes) send counters,
// bytes being encoded frame lengths, header included — the totals
// Options.Prober receives at every probe.
func (r *Runner) SentTotals() (msgs, bytes int64) { return r.ins.sentTotals() }

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
			r.ins.dropped.Inc()
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
		r.ins.sendLatency.Observe(lat)
		r.seq++
		r.queue.push(event{time: c.time + lat, seq: r.seq, from: c.id, to: to, msg: msg, lam: lam})
	}
	r.ins.queueDepthMax.SetMax(float64(len(r.queue)))
}

// SetTimer implements TimerSetter: deliver msg back to this node after
// delay time units. Timers are exempt from the link policy and from
// the network message statistics.
func (c *runnerCtx) SetTimer(delay float64, msg Message) {
	if !(delay > 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("simnet: SetTimer delay %v is not positive and finite", delay))
	}
	r := c.r
	r.seq++
	r.queue.push(event{time: c.time + delay, seq: r.seq, from: c.id, to: c.id, msg: msg, timer: true})
	r.ins.queueDepthMax.SetMax(float64(len(r.queue)))
	if h := HandleOf(msg); h != nil {
		seq := r.seq
		h.Bind(func() bool {
			if r.stopped == nil {
				r.stopped = make(map[int]bool)
			}
			r.stopped[seq] = true
			r.ins.timersStopped.Inc()
			return true
		})
	}
}

// Run executes the protocol: Init on every node (in ID order, at time
// 0), then deliveries in (time, seq) order until the queue drains. It
// returns the run statistics and an error if MaxDeliveries was
// exceeded or if the queue drained while some node had not halted
// (which for a correct protocol means a node is waiting forever — the
// situation Lemma 5 excludes for LID).
func (r *Runner) Run(handlers []Handler) (Stats, error) {
	defer r.ins.mergeInto(r.opts.Metrics)
	if len(handlers) != r.n {
		return r.ins.stats(), fmt.Errorf("simnet: %d handlers for %d nodes", len(handlers), r.n)
	}
	if r.running {
		return r.ins.stats(), fmt.Errorf("simnet: Runner is single-use")
	}
	r.running = true
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
	// allocation removes per-delivery garbage. delivered mirrors the
	// delivery counters locally to keep the MaxDeliveries guard off
	// the atomic read path.
	ctx := &runnerCtx{r: r}
	delivered := 0
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
		msgs, bytes := r.ins.sentTotals()
		r.opts.Prober.Probe(nextProbe(), msgs, bytes)
		probeTick++
	}
	lastTime := 0.0
	for {
		for len(r.queue) > 0 {
			e := r.queue.pop()
			if e.timer {
				// A stopped timer vanishes: no delivery, no count, and no
				// effect on the clock, the probes or the admission time.
				if r.stopped[e.seq] {
					delete(r.stopped, e.seq)
					continue
				}
				if h := HandleOf(e.msg); h != nil {
					h.stop = nil // fired: a later Stop reports false
				}
			}
			if r.opts.MaxDeliveries > 0 && delivered >= r.opts.MaxDeliveries {
				return r.ins.stats(), fmt.Errorf("simnet: exceeded %d deliveries", r.opts.MaxDeliveries)
			}
			delivered++
			if interval > 0 {
				// A probe at t fires once every event strictly before t is
				// processed: with unit latency, probe k reports the state
				// after round k.
				for nextProbe() < e.time {
					probe()
				}
			}
			if e.timer {
				r.ins.timersFired.Inc()
			} else {
				r.ins.deliveries.Inc()
				r.ins.receivedByNode.Inc(e.to)
				if r.opts.Obs != nil {
					r.opts.Obs.Deliver(e.to, e.from, KindOf(e.msg), e.time, e.lam)
				}
			}
			r.ins.finalTime.SetMax(e.time)
			lastTime = e.time
			ctx.id, ctx.time = e.to, e.time
			handlers[e.to].HandleMessage(ctx, e.from, e.msg)
		}
		if r.opts.Admitter == nil {
			break
		}
		// Queue drained: release the next admission batch at the time
		// of the last delivery (keeping virtual time monotone). The run
		// ends when the admitter is exhausted too.
		k, err := admit(lastTime)
		if err != nil {
			return r.ins.stats(), err
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
				return r.ins.stats(), fmt.Errorf("simnet: node %d never halted (deadlock)", id)
			}
		}
	}
	return r.ins.stats(), nil
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
	r.seq++
	r.queue.push(event{time: at, seq: r.seq, from: to, to: to, msg: msg, timer: true})
	r.ins.queueDepthMax.SetMax(float64(len(r.queue)))
}
