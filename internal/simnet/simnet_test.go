package simnet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"overlaymatch/internal/obs"
	"overlaymatch/internal/rng"
)

// floodMsg is the flood protocol's token: a 16-byte frame, the 7-byte
// header and 9 payload bytes.
var floodMsg = Raw("flood tok")

// floodHandler: node 0 sends one token to every neighbor at Init and
// halts; other nodes halt upon first token and forward nothing. Total
// messages = deg(0).
type floodHandler struct {
	neighbors []int
	gotToken  bool
}

func (h *floodHandler) Init(ctx Context) {
	if ctx.ID() == 0 {
		for _, nb := range h.neighbors {
			ctx.Send(nb, floodMsg)
		}
	}
	if ctx.ID() == 0 || len(h.neighbors) == 0 {
		ctx.Halt()
	}
}

func (h *floodHandler) HandleMessage(ctx Context, from int, msg Message) {
	h.gotToken = true
	ctx.Halt()
}

// starHandlers builds flood handlers for a star centered at 0.
func starHandlers(n int) []Handler {
	hs := make([]Handler, n)
	var center []int
	for i := 1; i < n; i++ {
		center = append(center, i)
	}
	hs[0] = &floodHandler{neighbors: center}
	for i := 1; i < n; i++ {
		hs[i] = &floodHandler{neighbors: []int{0}}
	}
	return hs
}

func TestRunnerFlood(t *testing.T) {
	const n = 6
	r := NewRunner(n, Options{Seed: 1})
	stats, err := r.Run(starHandlers(n))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSent() != n-1 || stats.Deliveries != n-1 {
		t.Fatalf("sent %d delivered %d, want %d", stats.TotalSent(), stats.Deliveries, n-1)
	}
	if stats.SentByNode[0] != n-1 || stats.SentByNode[1] != 0 {
		t.Fatalf("per-node sends wrong: %v", stats.SentByNode)
	}
	if stats.ReceivedByNode[0] != 0 || stats.ReceivedByNode[3] != 1 {
		t.Fatalf("per-node receives wrong: %v", stats.ReceivedByNode)
	}
	if stats.SentByKind["RAW"] != n-1 {
		t.Fatalf("kind accounting wrong: %v", stats.SentByKind)
	}
	if stats.FinalTime != 1 { // unit latency
		t.Fatalf("final time %v, want 1", stats.FinalTime)
	}
}

// deliverEvents returns the recorder's delivery events in record order.
func deliverEvents(rec *obs.Recorder) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Type == obs.EvDeliver {
			out = append(out, e)
		}
	}
	return out
}

func TestRunnerDeterministicTrace(t *testing.T) {
	run := func() []obs.Event {
		rec := obs.NewRecorder(6)
		r := NewRunner(6, Options{Seed: 42, Latency: ExponentialLatency(2.0), Obs: rec})
		if _, err := r.Run(starHandlers(6)); err != nil {
			t.Fatal(err)
		}
		return deliverEvents(rec)
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different traces")
	}
}

func TestRunnerSeedChangesOrder(t *testing.T) {
	order := func(seed uint64) []int {
		rec := obs.NewRecorder(8)
		r := NewRunner(8, Options{Seed: seed, Latency: ExponentialLatency(5), Obs: rec})
		if _, err := r.Run(starHandlers(8)); err != nil {
			t.Fatal(err)
		}
		var to []int
		for _, e := range deliverEvents(rec) {
			to = append(to, e.Node)
		}
		return to
	}
	if reflect.DeepEqual(order(1), order(2)) {
		t.Fatal("different seeds gave identical delivery orders (suspicious)")
	}
}

// stubborn never halts and sends nothing.
type stubborn struct{}

func (stubborn) Init(Context)                        {}
func (stubborn) HandleMessage(Context, int, Message) {}

func TestRunnerDetectsNonHaltedNode(t *testing.T) {
	r := NewRunner(2, Options{Seed: 1})
	_, err := r.Run([]Handler{stubborn{}, stubborn{}})
	if err == nil || !strings.Contains(err.Error(), "never halted") {
		t.Fatalf("err = %v, want deadlock detection", err)
	}
}

// pingpong bounces a message between nodes 0 and 1 forever.
type pingpong struct{}

func (pingpong) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, Raw("ping"))
	}
}
func (pingpong) HandleMessage(ctx Context, from int, msg Message) {
	ctx.Send(from, msg)
}

// TestRunnerMaxDeliveriesGuard: the cap counts deliveries and timer
// firings together, so it stops a message loop and a timer loop alike.
// The timer loop ends by itself after 200 firings: a cap that stopped
// counting timers would let it finish without an error.
func TestRunnerMaxDeliveriesGuard(t *testing.T) {
	r := NewRunner(2, Options{Seed: 1, MaxDeliveries: 100})
	_, err := r.Run([]Handler{pingpong{}, pingpong{}})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want delivery-cap error", err)
	}

	fired := 0
	rearm := handlerFunc{
		init: func(ctx Context) { SetTimerOn(ctx, 1, "tick") },
		handle: func(ctx Context, _ int, _ Message) {
			if fired++; fired < 200 {
				SetTimerOn(ctx, 1, "tick")
			} else {
				ctx.Halt()
			}
		},
	}
	st, err := NewRunner(1, Options{MaxDeliveries: 50}).Run([]Handler{rearm})
	if err == nil || !strings.Contains(err.Error(), "exceeded 50 deliveries and timer firings") {
		t.Fatalf("timer loop: err = %v, want the cap naming deliveries and timer firings", err)
	}
	if st.Deliveries != 0 || st.TimersFired != 50 {
		t.Fatalf("timer loop stopped after %d deliveries and %d timer firings, want 0 and 50", st.Deliveries, st.TimersFired)
	}
}

func TestRunnerHandlerCountMismatch(t *testing.T) {
	r := NewRunner(3, Options{})
	if _, err := r.Run([]Handler{stubborn{}}); err == nil {
		t.Fatal("expected handler count error")
	}
}

func TestRunnerSingleUse(t *testing.T) {
	r := NewRunner(1, Options{})
	h := []Handler{&floodHandler{}}
	if _, err := r.Run(h); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(h); err == nil {
		t.Fatal("second Run should error")
	}
}

func TestRunnerSendOutOfRangePanics(t *testing.T) {
	r := NewRunner(1, Options{})
	bad := handlerFunc{
		init: func(ctx Context) { ctx.Send(5, "x") },
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = r.Run([]Handler{bad})
}

// handlerFunc adapts closures to Handler.
type handlerFunc struct {
	init   func(Context)
	handle func(Context, int, Message)
}

func (h handlerFunc) Init(ctx Context) {
	if h.init != nil {
		h.init(ctx)
	}
}
func (h handlerFunc) HandleMessage(ctx Context, from int, msg Message) {
	if h.handle != nil {
		h.handle(ctx, from, msg)
	}
}

func TestLatencyFuncs(t *testing.T) {
	if UnitLatency(0, 1, nil) != 1 {
		t.Fatal("unit latency != 1")
	}
	if lat := UniformLatency(2, 3)(0, 1, rng.New(1)); !(lat >= 2 && lat < 3) {
		t.Fatalf("UniformLatency(2, 3) drew %v", lat)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{0, 1}, {-1, 1}, {2, 1}, {nan, 1}, {1, nan}, {1, inf}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UniformLatency(%v, %v) should panic", c[0], c[1])
				}
			}()
			UniformLatency(c[0], c[1])
		}()
	}
}

// chainHandler forwards a counter down a line of nodes; node n-1 halts
// the chain. Every node halts after its part.
type chainHandler struct{ n int }

func (h chainHandler) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, Raw{1})
		ctx.Halt()
	}
}

func (h chainHandler) HandleMessage(ctx Context, from int, msg Message) {
	v := msg.(Raw)[0]
	if next := ctx.ID() + 1; next < h.n {
		ctx.Send(next, Raw{v + 1})
	}
	ctx.Halt()
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{SentByNode: []int{3, 1, 4}}
	if s.TotalSent() != 8 || s.MaxSentByNode() != 4 {
		t.Fatalf("TotalSent/Max = %d/%d", s.TotalSent(), s.MaxSentByNode())
	}
	if KindOf("plain") != "" {
		t.Fatal("plain message should have empty kind")
	}
	if KindOf(Raw{}) != "RAW" {
		t.Fatal("kinder not honored")
	}
	if !strings.Contains(s.String(), "sent=8") {
		t.Fatalf("String = %q", s.String())
	}
}
