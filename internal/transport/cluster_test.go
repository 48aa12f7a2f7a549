package transport_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/workload"
)

// star floods one frame from node 0 to every other node; each leaf
// halts on arrival.
type star struct{ n int }

func (s star) Init(ctx simnet.Context) {
	if ctx.ID() == 0 {
		for to := 1; to < s.n; to++ {
			ctx.Send(to, simnet.Raw("flood"))
		}
		ctx.Halt()
	}
}
func (star) HandleMessage(ctx simnet.Context, _ int, _ simnet.Message) { ctx.Halt() }

// TestClusterFlood checks the per-node and per-kind accounting of a
// one-to-all flood.
func TestClusterFlood(t *testing.T) {
	const n = 10
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(n, transport.ClusterConfig{Timeout: 10 * time.Second})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			hs := make([]simnet.Handler, n)
			for i := range hs {
				hs[i] = star{n: n}
			}
			st, err := cluster.Run(hs)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if st.TotalSent() != n-1 || st.Deliveries != n-1 || st.SentByNode[0] != n-1 {
				t.Fatalf("sent %d (node 0: %d) delivered %d, want %d", st.TotalSent(), st.SentByNode[0], st.Deliveries, n-1)
			}
			for i := 1; i < n; i++ {
				if st.ReceivedByNode[i] != 1 {
					t.Fatalf("per-node receives wrong: %v", st.ReceivedByNode)
				}
			}
			if st.SentByKind["RAW"] != n-1 {
				t.Fatalf("kind accounting: %v", st.SentByKind)
			}
			checkBalanced(t, cluster, nil)
		})
	}
}

// chain forwards a hop counter down a line of nodes; every node checks
// the count it receives, forwards it incremented, and halts.
type chain struct {
	n       int
	badHops *int // set by the node that saw a wrong hop count
}

func (c chain) Init(ctx simnet.Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, simnet.Raw{1})
		ctx.Halt()
	}
}

func (c chain) HandleMessage(ctx simnet.Context, _ int, msg simnet.Message) {
	hop := int(msg.(simnet.Raw)[0])
	if hop != ctx.ID() {
		*c.badHops = hop
	}
	if next := ctx.ID() + 1; next < c.n {
		ctx.Send(next, simnet.Raw{byte(hop + 1)})
	}
	ctx.Halt()
}

// TestClusterChain exercises cross-node sequencing: a 50-hop relay
// must arrive intact at every node.
func TestClusterChain(t *testing.T) {
	const n = 50
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(n, transport.ClusterConfig{Timeout: 10 * time.Second})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			bad := make([]int, n)
			hs := make([]simnet.Handler, n)
			for i := range hs {
				hs[i] = chain{n: n, badHops: &bad[i]}
			}
			st, err := cluster.Run(hs)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if st.Deliveries != n-1 {
				t.Fatalf("deliveries = %d, want %d", st.Deliveries, n-1)
			}
			for id, hop := range bad {
				if hop != 0 {
					t.Fatalf("node %d received hop %d", id, hop)
				}
			}
			checkBalanced(t, cluster, nil)
		})
	}
}

// pingPong bounces one frame between nodes 0 and 1 forever and never
// halts: a livelock, which the counting certificate can never
// certify.
type pingPong struct{}

func (pingPong) Init(ctx simnet.Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, simnet.Raw("ping"))
	}
}
func (pingPong) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	ctx.Send(from, msg)
}

func TestClusterTimeoutNamesStuckNodes(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(2, transport.ClusterConfig{Timeout: 200 * time.Millisecond})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			_, err = cluster.Run([]simnet.Handler{pingPong{}, pingPong{}})
			if err == nil || !strings.Contains(err.Error(), "not quiescent after 200ms") {
				t.Fatalf("err = %v, want the timeout", err)
			}
			for id := 0; id < 2; id++ {
				if !strings.Contains(err.Error(), fmt.Sprintf("node %d (halted=false", id)) {
					t.Fatalf("timeout error does not name node %d: %v", id, err)
				}
			}
		})
	}
}

// TestMemoryClusterRecorder: the in-process wire carries the sender's
// Lamport stamp to the receiver, so every delivery is causally after
// its send; a socket has no room for the stamp and refuses a recorder.
func TestMemoryClusterRecorder(t *testing.T) {
	const n = 6
	rec := obs.NewRecorder(n)
	cluster, err := transport.NewMemoryCluster(n, transport.ClusterConfig{Timeout: 10 * time.Second, Obs: rec})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	hs := make([]simnet.Handler, n)
	for i := range hs {
		hs[i] = star{n: n}
	}
	if _, err := cluster.Run(hs); err != nil {
		t.Fatalf("run: %v", err)
	}
	sends, delivers := 0, 0
	sendLam := map[uint64]bool{}
	for _, e := range rec.Events() {
		if e.Type == obs.EvSend {
			sends++
			sendLam[e.Lam] = true
		}
	}
	for _, e := range rec.Events() {
		if e.Type != obs.EvDeliver {
			continue
		}
		delivers++
		if !sendLam[e.SendLam] || e.Lam <= e.SendLam {
			t.Fatalf("deliver %+v is not causally after a recorded send", e)
		}
	}
	if sends != n-1 || delivers != n-1 {
		t.Fatalf("recorded %d sends / %d delivers, want %d/%d", sends, delivers, n-1, n-1)
	}

	if _, err := transport.NewLoopbackCluster(2, transport.ClusterConfig{Obs: rec}); err == nil {
		t.Fatal("NewLoopbackCluster accepted a recorder it cannot feed")
	}
}

// badSender sends an unregistered type (frame_test.go) and keeps the
// panic it gets.
type badSender struct{ recovered any }

func (b *badSender) Init(ctx simnet.Context) {
	defer func() {
		b.recovered = recover()
		ctx.Halt()
	}()
	ctx.Send(1, unregistered{})
}
func (b *badSender) HandleMessage(simnet.Context, int, simnet.Message) {}

// TestClusterUnregisteredTypePanics: a message with no wire form fails
// at the send site on both wires, as it does on the Runner.
func TestClusterUnregisteredTypePanics(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(2, transport.ClusterConfig{Timeout: 10 * time.Second})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			b := &badSender{}
			if _, err := cluster.Run([]simnet.Handler{b, &haltAtInit{}}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if msg := fmt.Sprint(b.recovered); !strings.Contains(msg, "no codec registered") {
				t.Fatalf("Send of an unregistered type: recovered %q, want the codec panic", msg)
			}
			checkBalanced(t, cluster, nil)
		})
	}
}

// TestClusterEmpty: a zero-node cluster runs to empty stats on both
// wires; a negative size is an error.
func TestClusterEmpty(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			if _, err := w.new(-1, transport.ClusterConfig{}); err == nil {
				t.Fatal("negative cluster size accepted")
			}
			cluster, err := w.new(0, transport.ClusterConfig{})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			st, err := cluster.Run(nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if st.TotalSent() != 0 || st.Deliveries != 0 || len(st.SentByNode) != 0 {
				t.Fatalf("empty cluster produced %+v", st)
			}
		})
	}
}

// TestClusterUnderFaults runs reliable LID through a lossy, duplicating,
// corrupting, delaying link policy on both wires. Each run must land
// on LIC and end on the counting certificate — well before the idle
// window — because dropped frames are never activated and every copy
// is; checkBalanced holds the node counters to the policy's own log.
func TestClusterUnderFaults(t *testing.T) {
	spec, err := faults.Parse("drop=0.1,dup=0.05,corrupt=0.03,delay=0.1,delayscale=4")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				ws := workload.Synthetic{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: seed}
				sys, err := ws.Build()
				if err != nil {
					t.Fatalf("seed %d: build: %v", seed, err)
				}
				tbl := satisfaction.NewTable(sys)
				nodes := lid.NewNodes(sys, tbl)
				eps := reliable.WrapConfig(lid.Handlers(nodes), reliable.Config{RTO: 40})
				inj := faults.NewInjector(spec, seed*7919)
				sink := metrics.New()
				cluster := w.withSink(t, len(nodes), transport.ClusterConfig{
					Timeout:    30 * time.Second,
					IdleWindow: certainWindow,
					Policy:     inj,
				}, sink)
				start := time.Now()
				st, err := cluster.Run(reliable.Handlers(eps))
				if err != nil {
					t.Fatalf("seed %d: run: %v", seed, err)
				}
				if elapsed := time.Since(start); elapsed >= certainWindow/2 {
					t.Errorf("seed %d: run took %v: termination was not certified by the counters", seed, elapsed)
				}
				m, err := lid.BuildMatching(nodes)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !m.Equal(matching.LIC(sys, tbl)) {
					t.Fatalf("seed %d: cluster LID under faults differs from LIC", seed)
				}
				if len(inj.Events()) == 0 {
					t.Fatalf("seed %d: the policy injected nothing", seed)
				}
				// The sink's verdicts by kind are the policy's log.
				want := map[string]int64{}
				for _, e := range inj.Events() {
					want[e.Kind]++
				}
				if got := sink.Family("simnet_fault_injections_total", "", "kind").Counts(); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: sink fault verdicts %v, policy log %v", seed, got, want)
				}
				if got := sink.Counter("simnet_dropped_total", "").Value(); got != int64(st.Dropped) {
					t.Errorf("seed %d: sink drops %d, stats %d", seed, got, st.Dropped)
				}
				checkBalanced(t, cluster, inj)
			}
		})
	}
}

// stopTok is a stoppable timer token.
type stopTok struct{ t *simnet.Timer }

func (s stopTok) TimerHandle() *simnet.Timer { return s.t }

// stopper arms a timer a minute out and a short one; the short one's
// delivery stops the long one, which then never arrives.
type stopper struct {
	long    stopTok
	stopped bool
	late    bool // the long timer was delivered after all
}

func (s *stopper) Init(ctx simnet.Context) {
	s.long = stopTok{t: new(simnet.Timer)}
	simnet.SetTimerOn(ctx, 60_000, s.long)
	simnet.SetTimerOn(ctx, 1, simnet.Raw("short"))
}

func (s *stopper) HandleMessage(ctx simnet.Context, _ int, msg simnet.Message) {
	if _, ok := msg.(stopTok); ok {
		s.late = true
		return
	}
	s.stopped = s.long.t.Stop()
	ctx.Halt()
}

// TestClusterTimerStop: a stopped timer retires its activation at
// once, so the run ends on the counting certificate instead of
// waiting a minute for the timer, and the stop is counted.
func TestClusterTimerStop(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(1, transport.ClusterConfig{Timeout: 10 * time.Second, IdleWindow: certainWindow})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			h := &stopper{}
			start := time.Now()
			st, err := cluster.Run([]simnet.Handler{h})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if elapsed := time.Since(start); elapsed >= time.Second {
				t.Errorf("run took %v: the stopped timer still held the certificate", elapsed)
			}
			if !h.stopped || h.late {
				t.Fatalf("Stop reported %v, late delivery %v; want true, false", h.stopped, h.late)
			}
			if st.TimersFired != 1 || st.TimersStopped != 1 {
				t.Fatalf("timers fired %d stopped %d, want 1 and 1", st.TimersFired, st.TimersStopped)
			}
			reg := metrics.New()
			cluster.Nodes()[0].PublishMetrics(reg)
			if got := reg.Counter("simnet_timers_stopped_total", "").Value(); got != 1 {
				t.Fatalf("published timers_stopped = %d, want 1", got)
			}
			checkBalanced(t, cluster, nil)
		})
	}
}

// racer arms a timer due in 200µs and, still inside Init, stops it
// after wait, so the stop races the firing.
type racer struct {
	wait      time.Duration
	stopWon   bool
	delivered int
}

func (r *racer) Init(ctx simnet.Context) {
	tok := stopTok{t: new(simnet.Timer)}
	simnet.SetTimerOn(ctx, 0.2, tok)
	time.Sleep(r.wait)
	r.stopWon = tok.t.Stop()
	ctx.Halt()
}

func (r *racer) HandleMessage(simnet.Context, int, simnet.Message) { r.delivered++ }

// TestClusterTimerStopRace: when Stop races the firing, exactly one of
// them happens — the delivery, or the stopped completion — and the
// certificate balances either way.
func TestClusterTimerStopRace(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			var won, lost int
			for i := 0; i < 20; i++ {
				cluster, err := w.new(1, transport.ClusterConfig{Timeout: 10 * time.Second})
				if err != nil {
					t.Fatalf("cluster: %v", err)
				}
				h := &racer{wait: time.Duration(i) * 20 * time.Microsecond}
				st, err := cluster.Run([]simnet.Handler{h})
				if err != nil {
					t.Fatalf("wait %v: run: %v", h.wait, err)
				}
				if h.stopWon {
					won++
				} else {
					lost++
				}
				if h.stopWon == (h.delivered == 1) || h.delivered > 1 {
					t.Fatalf("wait %v: Stop reported %v and the timer was delivered %d times", h.wait, h.stopWon, h.delivered)
				}
				if st.TimersFired != h.delivered || st.TimersStopped != 1-h.delivered {
					t.Fatalf("wait %v: fired %d stopped %d, with %d deliveries", h.wait, st.TimersFired, st.TimersStopped, h.delivered)
				}
				checkBalanced(t, cluster, nil)
			}
			t.Logf("stop won %d races, the firing won %d", won, lost)
		})
	}
}
