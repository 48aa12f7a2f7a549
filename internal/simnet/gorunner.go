package simnet

import (
	"fmt"
	"sync"
	"time"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
)

// GoRunner executes a protocol with one goroutine per node and
// unbounded mailboxes between them. Unlike Runner it is actually
// concurrent: interleavings come from the Go scheduler, so running
// under -race exercises the protocol's per-node isolation. Global
// termination is detected exactly: the run ends when every node has
// halted, every mailbox is empty, and no handler is mid-flight.
type GoRunner struct {
	n        int
	timeout  time.Duration
	timeUnit time.Duration // real duration of one virtual time unit (timers)

	mu          sync.Mutex
	cond        *sync.Cond
	outstanding int // sent but not yet fully processed messages
	initPending int // nodes that have not finished Init
	halted      []bool
	haltedCount int
	closed      bool

	boxes []*mailbox
	ins   *instruments
	sink  *metrics.Registry
	rec   *obs.Recorder

	polMu  sync.Mutex // serializes policy verdicts (policies are single-threaded)
	policy LinkPolicy
}

// NewGoRunner returns a GoRunner for n nodes. timeout bounds Run's
// wall-clock duration (a protocol that never terminates globally would
// otherwise hang); 0 means a 30s default.
func NewGoRunner(n int, timeout time.Duration) *GoRunner {
	if n < 0 {
		panic("simnet: negative node count")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	r := &GoRunner{
		n:           n,
		timeout:     timeout,
		timeUnit:    time.Millisecond,
		initPending: n,
		halted:      make([]bool, n),
		boxes:       make([]*mailbox, n),
		ins:         newInstruments(n),
	}
	r.cond = sync.NewCond(&r.mu)
	for i := range r.boxes {
		r.boxes[i] = newMailbox()
	}
	return r
}

type goCtx struct {
	r  *GoRunner
	id int
}

func (c *goCtx) ID() int       { return c.id }
func (c *goCtx) Time() float64 { return 0 }

// Observer implements Observable (nil when telemetry is off).
func (c *goCtx) Observer() *obs.Recorder { return c.r.rec }

func (c *goCtx) Halt() {
	r := c.r
	r.mu.Lock()
	if !r.halted[c.id] {
		r.halted[c.id] = true
		r.haltedCount++
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// SetTimeUnit changes the real duration of one virtual time unit used
// by timers (default 1ms). Call before Run.
func (r *GoRunner) SetTimeUnit(d time.Duration) {
	if d <= 0 {
		panic("simnet: non-positive time unit")
	}
	r.timeUnit = d
}

// SetMetricsSink sets a shared registry that receives a Merge of the
// run's private instrument registry when Run finishes. Call before
// Run.
func (r *GoRunner) SetMetricsSink(sink *metrics.Registry) { r.sink = sink }

// SetObserver installs a telemetry recorder (package obs). The
// recorder is mutex-guarded, so the per-node goroutines record
// concurrently in scheduler order: Lamport stamps stay causally
// consistent (a delivery always merges its send's stamp), but unlike
// the event runtime the record ORDER is not reproducible across runs.
// Times are recorded as 0 — the GoRunner has no global clock. Call
// before Run.
func (r *GoRunner) SetObserver(rec *obs.Recorder) { r.rec = rec }

// SetPolicy installs a fault-injection link policy (see LinkPolicy).
// The runner serializes Verdict calls under an internal mutex, so the
// same deterministic policy implementations work on both runtimes —
// but the GoRunner has no global clock, so verdicts see now == 0 and
// the ORDER of verdicts follows the Go scheduler: probabilistic faults
// apply, time-windowed ones do not, and exact replay is only defined
// on the event runtime. Call before Run.
func (r *GoRunner) SetPolicy(p LinkPolicy) { r.policy = p }

// Metrics returns the run's private instrument registry.
func (r *GoRunner) Metrics() *metrics.Registry { return r.ins.reg }

// SentTotals returns the cumulative (messages, bytes) send counters.
func (r *GoRunner) SentTotals() (msgs, bytes int64) { return r.ins.sentTotals() }

// SetTimer implements TimerSetter: msg is pushed back to this node's
// own mailbox after delay virtual time units of wall-clock time.
// Pending timers keep the run alive (they count as outstanding work).
func (c *goCtx) SetTimer(delay float64, msg Message) {
	if delay <= 0 {
		panic("simnet: SetTimer needs a positive delay")
	}
	r := c.r
	r.mu.Lock()
	r.outstanding++
	r.mu.Unlock()
	d := time.Duration(delay * float64(r.timeUnit))
	id := c.id
	time.AfterFunc(d, func() {
		r.boxes[id].push(delivery{from: id, msg: msg, timer: true})
	})
}

func (c *goCtx) Send(to int, msg Message) {
	r := c.r
	if to < 0 || to >= r.n {
		panic(fmt.Sprintf("simnet: send to %d outside [0,%d)", to, r.n))
	}
	// The message counters are atomic registry instruments; they no
	// longer need r.mu.
	kind := KindOf(msg)
	r.ins.countSend(c.id, kind, SizeOf(msg))
	lam := r.rec.Send(c.id, to, kind, 0)
	var v LinkVerdict
	if r.policy != nil {
		r.polMu.Lock()
		v = r.policy.Verdict(0, c.id, to, msg)
		r.polMu.Unlock()
		r.ins.countVerdict(v)
		if v.Drop {
			r.ins.dropped.Inc()
			return
		}
		if v.Corrupt {
			msg = Corrupted{Original: msg}
		}
	}
	for i := 0; i < 1+v.Copies; i++ {
		r.mu.Lock()
		r.outstanding++
		r.mu.Unlock()
		if v.ExtraDelay > 0 {
			// A delayed copy rides a wall-clock timer like SetTimer;
			// the outstanding count above keeps the run alive while it
			// is in flight.
			from := c.id
			payload := msg
			d := time.Duration(v.ExtraDelay * float64(r.timeUnit))
			time.AfterFunc(d, func() {
				depth := r.boxes[to].push(delivery{from: from, msg: payload, lam: lam})
				r.ins.queueDepthMax.SetMax(float64(depth))
			})
			continue
		}
		depth := r.boxes[to].push(delivery{from: c.id, msg: msg, lam: lam})
		r.ins.queueDepthMax.SetMax(float64(depth))
	}
}

// done reports (under r.mu) whether the run has globally terminated.
func (r *GoRunner) doneLocked() bool {
	return r.initPending == 0 && r.outstanding == 0 && r.haltedCount == r.n
}

// Run executes the protocol and blocks until global termination or
// timeout. On timeout it returns an error describing the stuck nodes.
func (r *GoRunner) Run(handlers []Handler) (Stats, error) {
	defer func() { r.ins.mergeInto(r.sink) }()
	if len(handlers) != r.n {
		return r.ins.stats(), fmt.Errorf("simnet: %d handlers for %d nodes", len(handlers), r.n)
	}
	var wg sync.WaitGroup
	for id := 0; id < r.n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := &goCtx{r: r, id: id}
			handlers[id].Init(ctx)
			r.mu.Lock()
			r.initPending--
			r.cond.Broadcast()
			r.mu.Unlock()
			for {
				d, ok := r.boxes[id].pop()
				if !ok {
					return
				}
				if r.rec != nil && !d.timer {
					r.rec.Deliver(id, d.from, KindOf(d.msg), 0, d.lam)
				}
				handlers[id].HandleMessage(ctx, d.from, d.msg)
				if d.timer {
					r.ins.timersFired.Inc()
				} else {
					r.ins.deliveries.Inc()
					r.ins.receivedByNode.Inc(id)
				}
				r.mu.Lock()
				r.outstanding--
				r.cond.Broadcast()
				r.mu.Unlock()
			}
		}(id)
	}

	// Watcher: wake on every state change; close mailboxes when done.
	finished := make(chan struct{})
	go func() {
		r.mu.Lock()
		for !r.doneLocked() && !r.closed {
			r.cond.Wait()
		}
		r.closed = true
		r.mu.Unlock()
		for _, b := range r.boxes {
			b.close()
		}
		close(finished)
	}()

	timer := time.NewTimer(r.timeout)
	defer timer.Stop()
	select {
	case <-finished:
		wg.Wait()
		return r.snapshotStats(), nil
	case <-timer.C:
		// Force shutdown and report which nodes were stuck.
		r.mu.Lock()
		r.closed = true
		var stuck []int
		for id, h := range r.halted {
			if !h {
				stuck = append(stuck, id)
			}
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		for _, b := range r.boxes {
			b.close()
		}
		wg.Wait()
		<-finished
		return r.snapshotStats(), fmt.Errorf("simnet: timeout after %v; non-halted nodes: %v", r.timeout, stuck)
	}
}

func (r *GoRunner) snapshotStats() Stats { return r.ins.stats() }
