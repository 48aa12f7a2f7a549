package transport_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/workload"
)

// certainWindow is an idle window no test run should ever reach: a run
// that returns well inside it ended on the counting certificate, not on
// the fallback.
const certainWindow = 5 * time.Second

// wire is one way to build a Cluster: directly, or through its
// Runtime, as a run does.
type wire struct {
	name string
	new  func(n int, cfg transport.ClusterConfig) (*transport.Cluster, error)
	rt   func(cfg transport.ClusterConfig) simnet.Runtime
}

// wires are the two wires; tests that hold on both run once per wire.
var wires = []wire{
	{"loopback", transport.NewLoopbackCluster, transport.Loopback},
	{"memory", transport.NewMemoryCluster, transport.Memory},
}

// withSink builds a Cluster through w's Runtime with sink as the run's
// sink hook.
func (w wire) withSink(t *testing.T, n int, cfg transport.ClusterConfig, sink *metrics.Registry) *transport.Cluster {
	t.Helper()
	tr, err := w.rt(cfg)(n, nil, nil, sink)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return tr.(*transport.Cluster)
}

// checkBalanced asserts the termination certificate's bookkeeping on a
// finished cluster: per node, completions account exactly for the
// node's Init, frames, fired timers and stopped timers, and
// cluster-wide the activations equal the completions (nothing left in
// flight or pending) and account exactly for every Init, frame copy
// handed to the wire, and timer, fired or stopped. inj is the run's
// link policy, or nil: its log is the oracle for which sends were
// dropped (never activated) and how many extra copies were made (each
// activated). Completions may exceed activations on one node — a sink
// finishes frames its peers started — so the equality holds only
// cluster-wide.
func checkBalanced(t *testing.T, cluster *transport.Cluster, inj *faults.Injector) {
	t.Helper()
	var begun, done, sent, armed, dropped int64
	for _, nd := range cluster.Nodes() {
		c := nd.Counters()
		if want := 1 + c.FramesDelivered + c.TimersFired + c.TimersStopped; c.Completions != want {
			t.Errorf("node %d: %d completions, want 1 + %d frames + %d timers fired + %d stopped",
				nd.ID(), c.Completions, c.FramesDelivered, c.TimersFired, c.TimersStopped)
		}
		if c.Activations < 1+c.FramesSent-c.Dropped {
			t.Errorf("node %d: %d activations for %d frames sent, %d dropped",
				nd.ID(), c.Activations, c.FramesSent, c.Dropped)
		}
		begun += c.Activations
		done += c.Completions
		sent += c.FramesSent
		armed += c.TimersFired + c.TimersStopped
		dropped += c.Dropped
	}
	wantDropped, copies := injected(inj, transport.InProcess(cluster))
	if dropped != wantDropped {
		t.Errorf("cluster-wide %d frames dropped, the policy dropped %d", dropped, wantDropped)
	}
	n := int64(len(cluster.Nodes()))
	if done != begun {
		t.Errorf("cluster-wide completions %d != activations %d", done, begun)
	}
	if want := n + sent - dropped + copies + armed; begun != want {
		t.Errorf("cluster-wide activations %d != %d inits + %d frames - %d dropped + %d copies + %d timers",
			begun, n, sent, dropped, copies, armed)
	}
}

// injected reads a policy's log: how many sends it kept off the wire
// and how many extra copies it put on. A corrupted frame reaches an
// in-process receiver but is discarded on a socket.
func injected(inj *faults.Injector, inProcess bool) (dropped, copies int64) {
	if inj == nil {
		return 0, 0
	}
	lost := make(map[int]bool)
	for _, e := range inj.Events() {
		if e.Kind == faults.KindDrop || (e.Kind == faults.KindCorrupt && !inProcess) {
			lost[e.Seq] = true
		}
	}
	for _, e := range inj.Events() {
		if e.Kind == faults.KindDup && !lost[e.Seq] {
			copies += int64(e.Copies)
		}
	}
	return int64(len(lost)), copies
}

// clusterLIC runs spec's workload on the deterministic Runner and on a
// cluster built by newCluster with the full lid→reliable→detector
// stack, fails t unless both produce the centralized LIC matching,
// checks the cluster's termination bookkeeping, and returns the
// cluster's stats and how long its Run took.
func clusterLIC(t *testing.T, spec workload.Synthetic, newCluster func(int, transport.ClusterConfig) (*transport.Cluster, error), cfg transport.ClusterConfig) (simnet.Stats, time.Duration) {
	t.Helper()
	sys, err := spec.Build()
	if err != nil {
		t.Fatalf("%+v: workload: %v", spec, err)
	}
	tbl := satisfaction.NewTable(sys)

	ref, err := lid.RunEvent(sys, tbl, simnet.Options{Seed: 1})
	if err != nil {
		t.Fatalf("%+v: runner reference: %v", spec, err)
	}
	if lic := matching.LIC(sys, tbl); !ref.Matching.Equal(lic) {
		t.Fatalf("%+v: runner matching differs from centralized LIC — workload unusable as reference", spec)
	}

	g := sys.Graph()
	nodes := lid.NewNodes(sys, tbl)
	handlers := lid.Handlers(nodes)
	eps := reliable.WrapConfig(handlers, reliable.Config{RTO: 40})
	handlers = reliable.Handlers(eps)
	adj := make([][]int, g.NumNodes())
	for i := range adj {
		adj[i] = g.Neighbors(i)
	}
	det := detector.Default()
	det.Ticks = 8 // short heartbeat budget: liveness is exercised, the test stays fast
	mons := detector.Wrap(handlers, adj, det)
	handlers = detector.Handlers(mons)

	cluster, err := newCluster(g.NumNodes(), cfg)
	if err != nil {
		t.Fatalf("%+v: cluster: %v", spec, err)
	}
	defer cluster.Close()
	start := time.Now()
	st, err := cluster.Run(handlers)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("%+v: cluster run: %v", spec, err)
	}

	got, err := lid.BuildMatching(nodes)
	if err != nil {
		t.Fatalf("%+v: matching: %v", spec, err)
	}
	if !got.Equal(ref.Matching) {
		t.Fatalf("%+v: cluster matching differs from runner LIC matching\ncluster: %v\n runner: %v", spec, got, ref.Matching)
	}
	checkBalanced(t, cluster, nil)
	return st, elapsed
}

// TestLoopbackClusterLIC is the package's conformance anchor: the same
// seeded workload runs once on the deterministic Runner and once on a
// real-socket loopback cluster with the full reliable/detector stack,
// and both must produce exactly the LIC matching. LID's outcome is
// determined by the preference system alone — every delivery order
// converges to the same locally-ideal configuration — which is what
// makes a byte-level nondeterministic transport verifiable against the
// simulator at all. The idle window is set far beyond the run's length,
// so returning in under a second shows the counting certificate, not
// the window, ended it.
func TestLoopbackClusterLIC(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster run in -short mode")
	}
	spec := workload.Synthetic{Topology: "gnp", N: 32, B: 3, Metric: "random", Seed: 42}
	st, elapsed := clusterLIC(t, spec, transport.NewLoopbackCluster, transport.ClusterConfig{Timeout: 60 * time.Second, IdleWindow: certainWindow})
	if elapsed >= time.Second {
		t.Errorf("run took %v: termination was not certified by the counters", elapsed)
	}
	if st.Deliveries == 0 || st.TotalSent() == 0 {
		t.Fatalf("cluster stats look empty: %+v", st)
	}
	// The stack's kinds all crossed the real wire. (reliable's DATA
	// frames report their payload's kind, so PROP/REJ stand in for
	// the data path and ACK for the reverse path.)
	for _, kind := range []string{"PROP", "REJ", "ACK", "HB"} {
		if st.SentByKind[kind] == 0 {
			t.Errorf("no %s frames on the wire; SentByKind = %v", kind, st.SentByKind)
		}
	}
}

// TestLoopbackClusterLICSweep widens the conformance anchor to every
// workload family the shared spec grammar knows, four seeds each, on
// both wires: the cluster must land on the Runner's LIC matching on
// all of them.
func TestLoopbackClusterLICSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster sweep in -short mode")
	}
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			for _, topo := range []string{"gnp", "geometric", "ba", "ring"} {
				for seed := uint64(1); seed <= 4; seed++ {
					spec := workload.Synthetic{Topology: topo, N: 32, B: 3, Metric: "random", Seed: seed}
					clusterLIC(t, spec, w.new, transport.ClusterConfig{Timeout: 60 * time.Second})
				}
			}
		})
	}
}

// burstSender floods one peer from Init and halts; burstSink counts
// arrivals and halts at the target. Between them they exercise
// coalescing: frames queued behind an in-flight datagram share
// envelopes.
type burstSender struct {
	to    int
	count int
}

func (b *burstSender) Init(ctx simnet.Context) {
	for i := 0; i < b.count; i++ {
		ctx.Send(b.to, simnet.Raw("burst"))
	}
	ctx.Halt()
}
func (b *burstSender) HandleMessage(simnet.Context, int, simnet.Message) {}

type burstSink struct {
	want int
	got  int
}

func (b *burstSink) Init(simnet.Context) {}
func (b *burstSink) HandleMessage(ctx simnet.Context, _ int, _ simnet.Message) {
	b.got++
	if b.got == b.want {
		ctx.Halt()
	}
}

func TestClusterCoalescing(t *testing.T) {
	const frames = 200
	cluster, err := transport.NewLoopbackCluster(2, transport.ClusterConfig{
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()
	sink := &burstSink{want: frames}
	st, err := cluster.Run([]simnet.Handler{&burstSender{to: 1, count: frames}, sink})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sink.got != frames {
		t.Fatalf("sink received %d of %d frames", sink.got, frames)
	}
	c := cluster.Nodes()[0].Counters()
	if c.FramesSent != frames {
		t.Fatalf("sender counted %d frames sent, want %d", c.FramesSent, frames)
	}
	// A tight Init loop queues frames far faster than datagrams leave,
	// so the send loop must have packed at least one multi-frame
	// envelope.
	if c.DatagramsSent >= c.FramesSent {
		t.Errorf("no coalescing: %d datagrams for %d frames", c.DatagramsSent, c.FramesSent)
	}
	if c.BytesSent == 0 || st.SentByKind["RAW"] != frames {
		t.Errorf("counters inconsistent: %+v, kinds %v", c, st.SentByKind)
	}
	checkBalanced(t, cluster, nil)
}

// echoTimer exercises the timer path: Init arms a timer, the timer
// delivery halts.
type echoTimer struct{ fired bool }

func (e *echoTimer) Init(ctx simnet.Context) {
	ctx.(simnet.TimerSetter).SetTimer(5, simnet.Raw("tick"))
}
func (e *echoTimer) HandleMessage(ctx simnet.Context, from int, _ simnet.Message) {
	if from == ctx.ID() {
		e.fired = true
		ctx.Halt()
	}
}

func TestClusterTimers(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(1, transport.ClusterConfig{
				Timeout:    10 * time.Second,
				IdleWindow: certainWindow,
			})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			h := &echoTimer{}
			start := time.Now()
			st, err := cluster.Run([]simnet.Handler{h})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !h.fired || st.TimersFired != 1 {
				t.Fatalf("timer not delivered: fired=%v stats=%+v", h.fired, st)
			}
			// The pending timer is an activation, so the run cannot be
			// certified before it fires — and is, right after.
			if elapsed >= time.Second {
				t.Errorf("run took %v: termination was not certified by the counters", elapsed)
			}
			checkBalanced(t, cluster, nil)
		})
	}
}

// idle neither sends nor halts.
type idle struct{}

func (idle) Init(simnet.Context)                               {}
func (idle) HandleMessage(simnet.Context, int, simnet.Message) {}

// TestClusterDeadlock: two handlers that never send and never halt
// leave nothing pending after Init, so the certificate holds at once
// and Run reports the deadlock like the Runner does, instead of
// waiting out the timeout.
func TestClusterDeadlock(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(2, transport.ClusterConfig{Timeout: 30 * time.Second})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			start := time.Now()
			_, err = cluster.Run([]simnet.Handler{idle{}, idle{}})
			elapsed := time.Since(start)
			if err == nil || !strings.Contains(err.Error(), "never halted (deadlock)") {
				t.Fatalf("err = %v, want the deadlock error", err)
			}
			if elapsed >= time.Second {
				t.Errorf("deadlock reported after %v, want under 1s", elapsed)
			}
			checkBalanced(t, cluster, nil)
		})
	}
}

// oneShot sends a single frame to node 1 and halts; haltAtInit halts in
// Init, so it never waits for that frame.
type oneShot struct{}

func (oneShot) Init(ctx simnet.Context) {
	ctx.Send(1, simnet.Raw("lost"))
	ctx.Halt()
}
func (oneShot) HandleMessage(simnet.Context, int, simnet.Message) {}

type haltAtInit struct{ got int }

func (h *haltAtInit) Init(ctx simnet.Context)                           { ctx.Halt() }
func (h *haltAtInit) HandleMessage(simnet.Context, int, simnet.Message) { h.got++ }

// TestClusterLostDatagramFallback loses the only datagram of a run
// whose handlers do not wait for it: its activation never completes,
// the counts never balance, and the idle window ends the run instead.
func TestClusterLostDatagramFallback(t *testing.T) {
	const window = 200 * time.Millisecond
	cluster, err := transport.NewLoopbackCluster(2, transport.ClusterConfig{
		Timeout:    10 * time.Second,
		IdleWindow: window,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()
	transport.DropNextDatagram(cluster.Nodes()[0])
	sink := &haltAtInit{}
	start := time.Now()
	if _, err := cluster.Run([]simnet.Handler{oneShot{}, sink}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if elapsed := time.Since(start); elapsed < window {
		t.Errorf("run ended after %v, before the %v idle window", elapsed, window)
	}
	if sink.got != 0 {
		t.Fatalf("the dropped frame arrived %d times", sink.got)
	}
	var begun, done int64
	for _, nd := range cluster.Nodes() {
		c := nd.Counters()
		begun += c.Activations
		done += c.Completions
	}
	if begun-done != 1 {
		t.Errorf("activations %d, completions %d: want exactly the lost frame outstanding", begun, done)
	}
}

func TestListenUDPValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  transport.UDPConfig
		want string
	}{
		{"zero nodes", transport.UDPConfig{N: 0, Listen: "127.0.0.1:0"}, "node count"},
		{"id out of range", transport.UDPConfig{NodeID: 3, N: 3, Listen: "127.0.0.1:0"}, "outside"},
		{"empty listen", transport.UDPConfig{NodeID: 0, N: 2}, "empty listen"},
		{"bad listen", transport.UDPConfig{NodeID: 0, N: 2, Listen: "not an address"}, "listen"},
		{"bad peer id", transport.UDPConfig{NodeID: 0, N: 2, Listen: "127.0.0.1:0",
			Peers: map[int]string{5: "127.0.0.1:1"}}, "peer ID"},
		{"bad peer addr", transport.UDPConfig{NodeID: 0, N: 2, Listen: "127.0.0.1:0",
			Peers: map[int]string{1: "nope"}}, "address"},
	}
	for _, tc := range cases {
		nd, err := transport.ListenUDP(tc.cfg)
		if err == nil {
			nd.Close()
			t.Errorf("%s: ListenUDP accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestClusterHandlerCountMismatch also pins Run's contract that it
// leaves the cluster closed even when it rejects its input: callers
// such as overlaysim never call Close themselves.
func TestClusterHandlerCountMismatch(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(2, transport.ClusterConfig{})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			if _, err := cluster.Run([]simnet.Handler{&echoTimer{}}); err == nil {
				t.Fatal("Run accepted 1 handler for 2 nodes")
			}
			for _, nd := range cluster.Nodes() {
				if !transport.Closed(nd) {
					t.Errorf("node %d left open after the rejected Run", nd.ID())
				}
			}
		})
	}
}

// TestUDPNodeMetrics publishes each closed node's counters into one
// registry, the export surface of the standalone binary: the simnet_*
// series every runtime shares, bytes in real encoded frames.
func TestUDPNodeMetrics(t *testing.T) {
	frame, err := simnet.EncodeFrame(simnet.Raw("burst"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			cluster, err := w.new(2, transport.ClusterConfig{Timeout: 20 * time.Second})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cluster.Close()
			if _, err := cluster.Run([]simnet.Handler{&burstSender{to: 1, count: 3}, &burstSink{want: 3}}); err != nil {
				t.Fatalf("run: %v", err)
			}
			reg := metrics.New()
			for _, nd := range cluster.Nodes() {
				nd.PublishMetrics(reg)
			}
			if got := reg.Family("simnet_sent_total", "", "kind").Value("RAW"); got != 3 {
				t.Fatalf("published RAW sends = %d, want 3", got)
			}
			if got, want := reg.Family("simnet_sent_bytes_by_kind", "", "kind").Value("RAW"), int64(3*len(frame)); got != want {
				t.Fatalf("published RAW bytes = %d, want %d", got, want)
			}
			if got := reg.Counter("simnet_deliveries_total", "").Value(); got != 3 {
				t.Fatalf("published deliveries = %d, want 3", got)
			}
			checkBalanced(t, cluster, nil)
			cluster.Nodes()[0].PublishMetrics(nil) // nil-safe
		})
	}
}

// TestClusterMetricsSink: a Cluster built through its Runtime merges
// its counters into the run's sink when Run returns — the Stats under
// the simnet_* names, and on sockets the datagram counters — and one
// sink adds runs of different sizes.
func TestClusterMetricsSink(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			reg := metrics.New()
			var deliveries, datagrams int64
			for _, n := range []int{2, 3} {
				cluster := w.withSink(t, n, transport.ClusterConfig{Timeout: 20 * time.Second}, reg)
				hs := []simnet.Handler{&burstSender{to: 1, count: 3}, &burstSink{want: 3}, &haltAtInit{}}
				st, err := cluster.Run(hs[:n])
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				deliveries += int64(st.Deliveries)
				for _, nd := range cluster.Nodes() {
					datagrams += nd.Counters().DatagramsSent
				}
			}
			if got := reg.Counter("simnet_deliveries_total", "").Value(); got != deliveries || got != 6 {
				t.Fatalf("sink deliveries = %d, runs say %d, want 6", got, deliveries)
			}
			if got := reg.Counter("transport_datagrams_sent_total", "").Value(); got != datagrams {
				t.Fatalf("sink datagrams_sent = %d, nodes say %d", got, datagrams)
			}
		})
	}
}

// TestTransportMetricNames pins the transport_* names: the socket's
// own series only, so a duplicate of a simnet_* quantity cannot return
// unnoticed. A loopback Cluster run and a lone socket node, as
// overlaynode publishes it, publish exactly these; the in-process wire
// has no socket and publishes none.
func TestTransportMetricNames(t *testing.T) {
	socket := []string{
		"transport_bytes_recv_total",
		"transport_bytes_sent_total",
		"transport_datagrams_discarded_total",
		"transport_datagrams_recv_total",
		"transport_datagrams_sent_total",
	}
	names := func(reg *metrics.Registry) []string {
		var out []string
		for _, s := range reg.Snapshot().Samples {
			if strings.HasPrefix(s.Name, "transport_") {
				out = append(out, s.Name)
			}
		}
		return out
	}
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			reg := metrics.New()
			cluster := w.withSink(t, 2, transport.ClusterConfig{Timeout: 20 * time.Second}, reg)
			if _, err := cluster.Run([]simnet.Handler{&burstSender{to: 1, count: 3}, &burstSink{want: 3}}); err != nil {
				t.Fatalf("run: %v", err)
			}
			want := socket
			if w.name == "memory" {
				want = nil
			}
			if got := names(reg); !reflect.DeepEqual(got, want) {
				t.Fatalf("cluster published %q, want %q", got, want)
			}
		})
	}
	t.Run("node", func(t *testing.T) {
		nd, err := transport.ListenUDP(transport.UDPConfig{NodeID: 0, N: 2, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		nd.Close()
		reg := metrics.New()
		nd.PublishMetrics(reg)
		if got := names(reg); !reflect.DeepEqual(got, socket) {
			t.Fatalf("node published %q, want %q", got, socket)
		}
	})
}

// TestClusterSetTimerRejectsNonFinite: a timer delay must be positive
// and finite; the guard fires before the timer counts as an activation.
func TestClusterSetTimerRejectsNonFinite(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			cluster, err := transport.NewMemoryCluster(1, transport.ClusterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			nd := cluster.Nodes()[0]
			defer func() {
				if recover() == nil {
					t.Fatalf("SetTimer accepted delay %v", d)
				}
				if a := nd.Counters().Activations; a != 0 {
					t.Fatalf("rejected timer counted %d activations", a)
				}
			}()
			transport.SetTimer(nd, d, simnet.Raw("t"))
		})
	}
}
