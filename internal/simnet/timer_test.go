package simnet

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"overlaymatch/internal/rng"
)

// timerToken marks timer deliveries in the tests.
type timerToken struct{ n int }

// timedHandler sets a chain of timers at Init and records fire order.
type timedHandler struct {
	mu     sync.Mutex
	fired  []int
	limit  int
	halted bool
}

func (h *timedHandler) Init(ctx Context) {
	SetTimerOn(ctx, 5, timerToken{0})
	SetTimerOn(ctx, 2, timerToken{1})
	SetTimerOn(ctx, 9, timerToken{2})
}

func (h *timedHandler) HandleMessage(ctx Context, from int, msg Message) {
	tok, ok := msg.(timerToken)
	if !ok {
		return
	}
	if from != ctx.ID() {
		panic("timer delivered with foreign from")
	}
	h.mu.Lock()
	h.fired = append(h.fired, tok.n)
	done := len(h.fired) == 3
	h.mu.Unlock()
	if done {
		ctx.Halt()
	}
}

func TestRunnerTimersFireInVirtualOrder(t *testing.T) {
	h := &timedHandler{}
	r := NewRunner(1, Options{Seed: 1})
	stats, err := r.Run([]Handler{h})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.fired) != 3 || h.fired[0] != 1 || h.fired[1] != 0 || h.fired[2] != 2 {
		t.Fatalf("fire order = %v, want [1 0 2]", h.fired)
	}
	if stats.TimersFired != 3 || stats.Deliveries != 0 {
		t.Fatalf("stats: timers %d deliveries %d", stats.TimersFired, stats.Deliveries)
	}
	if stats.FinalTime != 9 {
		t.Fatalf("final time %v, want 9", stats.FinalTime)
	}
}

func TestSetTimerPanicsOnBadDelay(t *testing.T) {
	r := NewRunner(1, Options{})
	bad := handlerFunc{init: func(ctx Context) { SetTimerOn(ctx, 0, "x") }}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = r.Run([]Handler{bad})
}

// uniformLoss is a test link policy dropping each send independently
// with probability p, from its own coin stream.
type uniformLoss struct {
	p   float64
	src *rng.Source
}

func (l uniformLoss) Verdict(float64, int, int, Message) LinkVerdict {
	return LinkVerdict{Drop: l.src.Bool(l.p)}
}

// dropAll is a test link policy losing every send.
type dropAll struct{}

func (dropAll) Verdict(float64, int, int, Message) LinkVerdict { return LinkVerdict{Drop: true} }

func TestUniformDropLosesMessages(t *testing.T) {
	// Node 0 sends 200 messages to node 1 through a policy losing each
	// with p=0.5: the Runner counts every send, counts roughly half as
	// dropped and delivers the rest. Node 1 halts at Init (it may
	// receive afterwards).
	sender := handlerFunc{
		init: func(ctx Context) {
			for i := 0; i < 200; i++ {
				ctx.Send(1, Raw{byte(i)})
			}
			ctx.Halt()
		},
	}
	receiver := handlerFunc{init: func(ctx Context) { ctx.Halt() }}
	r := NewRunner(2, Options{Seed: 3, Policy: uniformLoss{p: 0.5, src: rng.New(4)}})
	stats, err := r.Run([]Handler{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSent() != 200 {
		t.Fatalf("sent = %d", stats.TotalSent())
	}
	if stats.Dropped == 0 || stats.Dropped == 200 {
		t.Fatalf("dropped = %d, expected strictly between 0 and 200", stats.Dropped)
	}
	if stats.Deliveries+stats.Dropped != 200 {
		t.Fatalf("deliveries %d + dropped %d != 200", stats.Deliveries, stats.Dropped)
	}
	if stats.Dropped < 60 || stats.Dropped > 140 {
		t.Fatalf("dropped = %d, implausible for p=0.5", stats.Dropped)
	}
	if got := r.Metrics().Counter("simnet_dropped_total", "").Value(); got != int64(stats.Dropped) {
		t.Fatalf("simnet_dropped_total = %d, want %d", got, stats.Dropped)
	}
}

func TestTimersNotDropped(t *testing.T) {
	// Even when the link policy drops every send, timers always fire.
	h := &timedHandler{}
	r := NewRunner(1, Options{Seed: 1, Policy: dropAll{}})
	stats, err := r.Run([]Handler{h})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TimersFired != 3 {
		t.Fatalf("timers fired = %d", stats.TimersFired)
	}
}

func TestSetTimerOnUnsupportedContextPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "timers") {
			t.Fatalf("expected timer-support panic, got %v", r)
		}
	}()
	SetTimerOn(bareCtx{}, 1, "x")
}

// bareCtx implements only the base Context interface.
type bareCtx struct{}

func (bareCtx) ID() int           { return 0 }
func (bareCtx) Send(int, Message) {}
func (bareCtx) Halt()             {}
func (bareCtx) Time() float64     { return 0 }

// stopToken is a stoppable timer token.
type stopToken struct {
	n int
	t *Timer
}

func (s stopToken) TimerHandle() *Timer { return s.t }

// batchAdmitter releases fixed batches in order.
type batchAdmitter struct{ batches [][]int }

func (a *batchAdmitter) NextBatch() []int {
	if len(a.batches) == 0 {
		return nil
	}
	b := a.batches[0]
	a.batches = a.batches[1:]
	return b
}

// TestRunnerStoppedTimerVanishes: a timer stopped before its time is
// not delivered and not counted, and it moves neither the final time,
// the probes, the MaxDeliveries budget, nor the virtual time at which
// the next admission batch is released.
func TestRunnerStoppedTimerVanishes(t *testing.T) {
	long := stopToken{n: 1, t: new(Timer)}
	var probes []float64
	prober := timeRecorder(1, &probes)
	admittedAt := -1.0
	node0 := handlerFunc{
		init: func(ctx Context) {
			SetTimerOn(ctx, 5, long)
			SetTimerOn(ctx, 2, timerToken{0})
		},
		handle: func(ctx Context, _ int, msg Message) {
			if msg != (timerToken{0}) {
				t.Errorf("delivered %v at %v; only the short timer may fire", msg, ctx.Time())
				return
			}
			if !long.t.Stop() {
				t.Error("Stop of a pending timer reported false")
			}
			if long.t.Stop() {
				t.Error("a second Stop reported true")
			}
			ctx.Halt()
		},
	}
	node1 := handlerFunc{init: func(ctx Context) {
		admittedAt = ctx.Time()
		ctx.Halt()
	}}
	r := eventRunner(t, 2, Options{Seed: 1, MaxDeliveries: 1}, prober,
		&batchAdmitter{batches: [][]int{{0}, {1}}}, nil)
	stats, err := r.Run([]Handler{node0, node1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TimersFired != 1 || stats.TimersStopped != 1 || stats.FinalTime != 2 {
		t.Fatalf("fired %d stopped %d final time %v, want 1, 1, 2",
			stats.TimersFired, stats.TimersStopped, stats.FinalTime)
	}
	if got := r.Metrics().Counter("simnet_timers_stopped_total", "").Value(); got != 1 {
		t.Fatalf("simnet_timers_stopped_total = %d, want 1", got)
	}
	if admittedAt != 2 {
		t.Fatalf("second batch admitted at %v, want 2 (the last delivery)", admittedAt)
	}
	if len(probes) != 3 || probes[2] != 2 {
		t.Fatalf("probes at %v, want [0 1 2]", probes)
	}
}

// TestTimerStopAfterFire: once a timer has fired, Stop reports false
// and changes nothing, and so does a second Stop, or a Stop of a handle
// that was never armed.
func TestTimerStopAfterFire(t *testing.T) {
	tok := stopToken{n: 1, t: new(Timer)}
	fired := 0
	h := handlerFunc{
		init: func(ctx Context) { SetTimerOn(ctx, 1, tok) },
		handle: func(ctx Context, _ int, msg Message) {
			fired++
			for i := 0; i < 2; i++ {
				if tok.t.Stop() {
					t.Errorf("Stop %d after the timer fired reported true", i+1)
				}
			}
			ctx.Halt()
		},
	}
	stats, err := NewRunner(1, Options{}).Run([]Handler{h})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 || stats.TimersFired != 1 || stats.TimersStopped != 0 {
		t.Fatalf("fired %d (stats %d), stopped %d; want 1, 1, 0", fired, stats.TimersFired, stats.TimersStopped)
	}
	var never *Timer
	if never.Stop() || new(Timer).Stop() {
		t.Fatal("Stop of a never-armed handle reported true")
	}
}

// delivery is one logged handler call.
type delivery struct {
	at       float64
	to, from int
	hop      byte
}

// TestStoppingANoOpTimerKeepsOrder: stopping a timer whose delivery
// would do nothing leaves every other delivery exactly where it was —
// same virtual times, same order — because the timer still took its
// sequence number when it was armed.
func TestStoppingANoOpTimerKeepsOrder(t *testing.T) {
	run := func(stop bool) ([]delivery, Stats) {
		var log []delivery
		noop := stopToken{n: 1, t: new(Timer)}
		hs := make([]Handler, 3)
		for i := range hs {
			hs[i] = handlerFunc{
				init: func(ctx Context) {
					if ctx.ID() == 0 {
						SetTimerOn(ctx, 50, noop)
					}
					ctx.Send((ctx.ID()+1)%3, Raw{0})
				},
				handle: func(ctx Context, from int, msg Message) {
					if _, ok := msg.(stopToken); ok {
						return
					}
					hop := msg.(Raw)[0]
					log = append(log, delivery{ctx.Time(), ctx.ID(), from, hop})
					if stop && ctx.ID() == 0 {
						noop.t.Stop()
					}
					if hop < 60 {
						ctx.Send((ctx.ID()+1)%3, Raw{hop + 1})
						if hop%7 == 0 {
							ctx.Send((ctx.ID()+2)%3, Raw{hop + 1})
						}
					}
				},
			}
		}
		stats, err := NewRunner(3, Options{Seed: 4, Latency: ExponentialLatency(2), Quiesce: true}).Run(hs)
		if err != nil {
			t.Fatal(err)
		}
		return log, stats
	}
	fired, firedStats := run(false)
	stopped, stoppedStats := run(true)
	if firedStats.TimersFired != 1 || stoppedStats.TimersFired != 0 || stoppedStats.TimersStopped != 1 {
		t.Fatalf("timers fired/stopped: %d/%d and %d/%d, want 1/0 and 0/1",
			firedStats.TimersFired, firedStats.TimersStopped, stoppedStats.TimersFired, stoppedStats.TimersStopped)
	}
	if len(fired) < 100 || firedStats.FinalTime <= 50 {
		t.Fatalf("%d deliveries ending at %v: the run must outlast the no-op timer", len(fired), firedStats.FinalTime)
	}
	if len(fired) != len(stopped) {
		t.Fatalf("%d deliveries with the timer firing, %d with it stopped", len(fired), len(stopped))
	}
	for i := range fired {
		if fired[i] != stopped[i] {
			t.Fatalf("delivery %d: %+v with the timer firing, %+v with it stopped", i, fired[i], stopped[i])
		}
	}
}

// TestNonFiniteTimesPanic: every virtual time the Runner queues must be
// finite. A NaN breaks the event heap's order (a NaN retransmission
// timer once popped forever), and +Inf sends the probe loop chasing an
// infinite event time. Positive tests reject NaN with the rest.
func TestNonFiniteTimesPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mustPanic := func(t *testing.T, run func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		run()
	}
	send := handlerFunc{init: func(ctx Context) {
		if ctx.ID() == 0 {
			ctx.Send(1, Raw{1})
		}
	}}
	for _, lat := range []float64{nan, inf, 0, -1} {
		t.Run(fmt.Sprintf("latency %v", lat), func(t *testing.T) {
			r := NewRunner(2, Options{Latency: func(int, int, *rng.Source) float64 { return lat }})
			mustPanic(t, func() { _, _ = r.Run([]Handler{send, send}) })
		})
	}
	for _, d := range []float64{nan, inf, -1} {
		t.Run(fmt.Sprintf("timer %v", d), func(t *testing.T) {
			r := NewRunner(1, Options{})
			bad := handlerFunc{init: func(ctx Context) { SetTimerOn(ctx, d, "x") }}
			mustPanic(t, func() { _, _ = r.Run([]Handler{bad}) })
		})
	}
	for _, at := range []float64{nan, inf, -1} {
		t.Run(fmt.Sprintf("schedule %v", at), func(t *testing.T) {
			mustPanic(t, func() { NewRunner(1, Options{}).Schedule(at, 0, "x") })
		})
	}
}
