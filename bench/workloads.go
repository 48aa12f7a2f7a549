package main

import (
	"fmt"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
	scenario "overlaymatch/internal/workload"
)

// sizes fixes every workload's input size.
type sizes struct {
	gnpN, swarmN, udpN, churnN, churnEvents int
}

// fullSizes are the benchmark's sizes: each matching sample takes 0.1
// to 0.25 s and each churn feed about 0.5 s on a 2-CPU Xeon, so a 20 s
// run gathers about 100 samples or 6000 epochs per feed.
var fullSizes = sizes{gnpN: 20000, swarmN: 20000, udpN: 64, churnN: 50000, churnEvents: 20000}

const (
	// buildWorkers is the fan-out of the parallel instance, table and
	// engine builds: the number of CPUs of the machine the baseline was
	// recorded on, fixed so the work does not depend on the machine.
	buildWorkers = 2
	// parallelMinEdges is the smallest weight table built with
	// buildWorkers goroutines. Below it the fan-out costs more than the
	// work it splits, and waking a second CPU for 0.1 ms of work made the
	// udp-loopback setup time swing by a third between runs.
	parallelMinEdges = 1 << 14
	// avgDegree and quota define the GNP family of cmd/benchjson.
	avgDegree = 8.0
	quota     = 3
	// latencyJitter is the event runtime's link model:
	// latency 1 + Exp(1)·latencyJitter.
	latencyJitter = 4
	// udpTimeout bounds one loopback run; a run that does not quiesce
	// in time fails its sample.
	udpTimeout = 10 * time.Second
	// callSpanCap bounds the per-call spans kept for the Chrome trace.
	callSpanCap = 200_000
)

// sampleResult is what one closed-loop sample measured.
type sampleResult struct {
	err     error         // run error or failed output check
	wall    time.Duration // the measured part of the sample
	ops     []float64     // operation latencies in seconds
	items   int           // matched edges, or membership events applied
	msgs    float64       // protocol work per node (see msgs_per_node)
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	layers  map[string]float64
}

// probe is a traced sample's recording context; nil when untraced.
type probe struct {
	tr        *tracer
	parent    int // the sample's span
	sample    int
	keepCalls bool // keep per-call spans (the first traced sample)
}

func (p *probe) begin(name string) int {
	if p == nil {
		return -1
	}
	return p.tr.begin(name, p.parent, p.sample)
}

func (p *probe) end(id int) {
	if p != nil {
		p.tr.end(id)
	}
}

// callLogs returns where this sample keeps per-call spans, or nil.
func (p *probe) callLogs(n int) *callLogs {
	if p == nil || !p.keepCalls {
		return nil
	}
	p.tr.calls = newCallLogs(n, callSpanCap)
	return p.tr.calls
}

// workload is one benchmark input family driven as a closed loop with
// one client: a sample starts only after the previous one returned.
type workload interface {
	// setup builds the instance from the seed and returns the build
	// layers' times; the benchmark times the whole call as setup_s.
	setup(seed uint64) (map[string]float64, error)
	// system is the built preference system.
	system() *pref.System
	// prepare computes the output oracle. corrupt makes the reference
	// wrong on purpose (the negative-control test).
	prepare(corrupt bool) error
	// sample runs sample i, checks its output, and reports it.
	sample(i int, p *probe) sampleResult
	// canonicalMsgs is the message count of a canonical-admission run of
	// sample 0's instance and latency seed, the base of the scheduler's
	// savings; 0 for workloads without a scheduler.
	canonicalMsgs() (float64, error)
	// cpuBound reports whether a sample is single-threaded CPU work,
	// which the calibration factor scales. A loopback run is not: its
	// latency is mostly timers — a 40 ms heartbeat budget and a 150 ms
	// idle window — and its CPU time is spread over 64 nodes' goroutines
	// and socket system calls, which the kernel does not track.
	cpuBound() bool
}

// newWorkload returns the named workload at the given sizes.
func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "event-gnp":
		return &matchWorkload{build: randomGraphInstance(sz.gnpN, false)}, nil
	case "event-swarm-greedy":
		return &matchWorkload{build: swarmInstance(sz.swarmN), greedy: true}, nil
	case "udp-loopback":
		return &matchWorkload{build: randomGraphInstance(sz.udpN, true), udp: true}, nil
	case "churn-repair":
		return &churnWorkload{n: sz.churnN, events: sz.churnEvents}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want event-gnp, event-swarm-greedy, udp-loopback or churn-repair)", name)
}

// buildFunc builds a workload's preference system from the seed and
// records the build layers' times in layers.
type buildFunc func(seed uint64, layers map[string]float64) (*pref.System, error)

// randomGraphInstance is cmd/benchjson's family: a random graph of
// average degree 8, random metric, uniform quota 3. The graph is
// G(n,p), or with fixedEdges G(n,m) with m = 4n: at n=64 the edge
// count of G(n,p) varies by about 6% between seeds, and a loopback
// run's heartbeat traffic with it.
func randomGraphInstance(n int, fixedEdges bool) buildFunc {
	return func(seed uint64, layers map[string]float64) (*pref.System, error) {
		src := rng.New(seed)
		start := time.Now()
		var g *graph.Graph
		if fixedEdges {
			g = gen.GNM(src, n, int(avgDegree)*n/2)
		} else {
			g = gen.GNP(src, n, avgDegree/float64(n-1))
		}
		layers["gen.graph_s"] = time.Since(start).Seconds()
		start = time.Now()
		s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(quota))
		layers["pref.build_s"] = time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("preferences: %w", err)
		}
		return s, nil
	}
}

// swarmInstance is workload's Zipf-skewed swarm family.
func swarmInstance(n int) buildFunc {
	return func(seed uint64, layers map[string]float64) (*pref.System, error) {
		start := time.Now()
		inst, err := scenario.Build(scenario.Spec{Family: "swarm", N: n}, seed, buildWorkers)
		layers["workload.build_s"] = time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		return inst.System, nil
	}
}

// matchWorkload computes a whole LID matching per sample, on the event
// simulator (canonical or greedy admission) or on a loopback UDP
// cluster, and checks it against matching.LIC.
type matchWorkload struct {
	build  buildFunc
	greedy bool
	udp    bool

	seed uint64
	sys  *pref.System
	tbl  *satisfaction.Table
	ref  *matching.Matching
	adj  [][]int
}

func (w *matchWorkload) system() *pref.System { return w.sys }

func (w *matchWorkload) cpuBound() bool { return !w.udp }

func (w *matchWorkload) setup(seed uint64) (map[string]float64, error) {
	layers := map[string]float64{}
	s, err := w.build(seed, layers)
	if err != nil {
		return nil, err
	}
	workers := buildWorkers
	if s.Graph().NumEdges() < parallelMinEdges {
		workers = 1
	}
	tbl := satisfaction.NewTableParallel(s, workers)
	tbl.SortedNeighbors(s, 0) // builds every weight list, which the first run would otherwise pay for
	w.seed, w.sys, w.tbl = seed, s, tbl
	return layers, nil
}

func (w *matchWorkload) prepare(corrupt bool) error {
	w.ref = matching.LIC(w.sys, w.tbl)
	if corrupt {
		w.ref = dropOneEdge(w.ref)
	}
	if w.udp {
		g := w.sys.Graph()
		w.adj = make([][]int, g.NumNodes())
		for i := range w.adj {
			w.adj[i] = g.Neighbors(i)
		}
	}
	return nil
}

// dropOneEdge returns a copy of m without its first edge: a reference
// no correct run can match.
func dropOneEdge(m *matching.Matching) *matching.Matching {
	c := m.Clone()
	if es := c.Edges(); len(es) > 0 {
		c.Remove(es[0].U, es[0].V)
	}
	return c
}

func (w *matchWorkload) sample(i int, p *probe) sampleResult {
	r := sampleResult{layers: map[string]float64{}}
	var m *matching.Matching
	if w.udp {
		m, r.err = w.runUDP(i, p, startMeter(), &r)
	} else {
		m, r.err = w.runEvent(i, p, startMeter(), &r)
	}
	if r.err != nil {
		return r
	}
	r.ops = []float64{r.wall.Seconds()}
	r.items = m.Size()
	r.layers["lid.locks_per_msg"] = ratio(float64(m.Size()), r.layers["lid.prop_msgs"]+r.layers["lid.rej_msgs"])
	id := p.begin("verify")
	start := time.Now()
	if !m.Equal(w.ref) {
		r.err = fmt.Errorf("sample %d: matching (%d edges) differs from matching.LIC (%d edges)", i, m.Size(), w.ref.Size())
	}
	r.layers["check.verify_s"] = time.Since(start).Seconds()
	p.end(id)
	return r
}

// runEvent is lid.RunEventScheduled, composed from its public parts so
// each can be timed and the handlers and admitter decorated. The meter
// stops once the matching is assembled.
func (w *matchWorkload) runEvent(i int, p *probe, meter *meter, r *sampleResult) (*matching.Matching, error) {
	n := w.sys.Graph().NumNodes()
	opts := simnet.Options{Seed: w.seed + uint64(i), Latency: simnet.ExponentialLatency(latencyJitter)}

	id := p.begin("nodes")
	start := nowNs()
	nodes := lid.NewNodes(w.sys, w.tbl)
	var adm *lid.GreedyAdmitter
	built := nowNs()
	if w.greedy {
		adm = lid.NewGreedyAdmitter(w.sys, w.tbl, nodes, lid.SchedulerSpec{Kind: lid.SchedGreedy})
		opts.Admitter = adm
	}
	p.end(id)
	r.layers["lid.new_nodes_s"] = seconds(built - start)
	r.layers["scheduler.build_s"] = seconds(nowNs() - built)

	hs := lid.Handlers(nodes)
	var lay *layer
	var timed *timedAdmitter
	if p != nil {
		logs := p.callLogs(n)
		lay, hs = decorate("lid", hs, logs)
		if adm != nil {
			timed = &timedAdmitter{inner: adm, log: logs.runtimeLog()}
			opts.Admitter = timed
		}
	}
	runner := simnet.NewRunner(n, opts)
	runID := p.begin("run")
	start = nowNs()
	st, err := runner.Run(hs)
	runNs := nowNs() - start
	p.end(runID)
	if err != nil {
		return nil, fmt.Errorf("sample %d: %w", i, err)
	}

	id = p.begin("assemble")
	start = nowNs()
	m, err := lid.BuildMatching(nodes)
	r.layers["lid.build_matching_s"] = seconds(nowNs() - start)
	p.end(id)
	if err != nil {
		return nil, fmt.Errorf("sample %d: %w", i, err)
	}
	meter.stop(r)

	_, bytes := runner.SentTotals()
	r.msgs = float64(st.TotalSent()) / float64(n)
	r.layers["simnet.run_s"] = seconds(runNs)
	r.layers["simnet.deliveries"] = float64(st.Deliveries)
	r.layers["simnet.timers_fired"] = float64(st.TimersFired)
	r.layers["simnet.admission_batches"] = float64(runner.Metrics().Counter("simnet_admission_batches_total", "").Value())
	r.layers["simnet.virtual_rounds"] = st.FinalTime
	r.layers["simnet.bytes_per_node"] = float64(bytes) / float64(n)
	r.layers["lid.prop_msgs"] = float64(st.SentByKind["PROP"])
	r.layers["lid.rej_msgs"] = float64(st.SentByKind["REJ"])
	if adm != nil {
		gs := adm.Stats()
		r.layers["scheduler.rounds"] = float64(gs.Rounds)
		r.layers["scheduler.admitted"] = float64(gs.Admitted)
		r.layers["scheduler.early_stops"] = float64(gs.EarlyStops)
		r.layers["scheduler.stale_reinserts"] = float64(gs.StaleReinserts)
	}
	if lay != nil {
		handle, send := lay.totals()
		var next acc
		if timed != nil {
			next = timed.next
		}
		simnetSelf := runNs - handle.ns - next.ns
		r.layers["lid.handler_self_s"] = seconds(handle.ns - send.ns)
		r.layers["lid.handler_calls"] = float64(handle.calls)
		r.layers["lid.ns_per_call"] = ratio(float64(handle.ns-send.ns), float64(handle.calls))
		r.layers["simnet.send_s"] = seconds(send.ns)
		r.layers["simnet.self_s"] = seconds(simnetSelf)
		r.layers["simnet.ns_per_delivery"] = ratio(float64(simnetSelf), float64(st.Deliveries))
		r.layers["scheduler.next_batch_s"] = seconds(next.ns)
		r.layers["scheduler.calls"] = float64(next.calls)
		r.layers["scheduler.share_of_run"] = ratio(float64(next.ns), float64(runNs))
		lay.annotate(p.tr, runID)
		p.tr.arg(runID, "scheduler.next_batch_count", float64(next.calls))
		p.tr.arg(runID, "scheduler.next_batch_ns", float64(next.ns))
	}
	return m, nil
}

// runUDP runs the loopback-check stack — lid under reliable (RTO 40)
// under the default failure detector with an 8-tick heartbeat budget —
// on a fresh loopback cluster. The meter stops once the matching is
// assembled.
func (w *matchWorkload) runUDP(i int, p *probe, meter *meter, r *sampleResult) (*matching.Matching, error) {
	n := w.sys.Graph().NumNodes()
	logs := p.callLogs(n)
	var stack []*layer // outermost first
	wrap := func(name string, hs []simnet.Handler) []simnet.Handler {
		if p == nil {
			return hs
		}
		l, out := decorate(name, hs, logs)
		stack = append([]*layer{l}, stack...)
		return out
	}

	id := p.begin("nodes")
	start := nowNs()
	nodes := lid.NewNodes(w.sys, w.tbl)
	r.layers["lid.new_nodes_s"] = seconds(nowNs() - start)
	hs := wrap("lid", lid.Handlers(nodes))
	eps := reliable.WrapConfig(hs, reliable.Config{RTO: 40})
	hs = wrap("reliable", reliable.Handlers(eps))
	det := detector.Default()
	det.Ticks = 8
	mons := detector.Wrap(hs, w.adj, det)
	hs = wrap("detector", detector.Handlers(mons))
	if p != nil {
		for _, t := range stack[0].nodes {
			t.keep = true // the frames handed to the transport, replayed through the codecs below
		}
	}
	p.end(id)

	id = p.begin("boot")
	start = nowNs()
	cluster, err := transport.NewLoopbackCluster(n, transport.ClusterConfig{Timeout: udpTimeout})
	r.layers["transport.cluster_boot_s"] = seconds(nowNs() - start)
	p.end(id)
	if err != nil {
		return nil, fmt.Errorf("sample %d: %w", i, err)
	}
	runID := p.begin("run")
	start = nowNs()
	var watch *haltWatch
	if p != nil {
		watch = watchHalted(cluster.Nodes())
	}
	st, err := cluster.Run(hs)
	runNs := nowNs() - start
	allHalted := watch.wait()
	p.end(runID)
	if err != nil {
		return nil, fmt.Errorf("sample %d: %w", i, err)
	}

	id = p.begin("assemble")
	start = nowNs()
	m, err := lid.BuildMatching(nodes)
	r.layers["lid.build_matching_s"] = seconds(nowNs() - start)
	p.end(id)
	if err != nil {
		return nil, fmt.Errorf("sample %d: %w", i, err)
	}
	meter.stop(r)

	var frames, datagrams, bytes, dropped int64
	for _, nd := range cluster.Nodes() {
		c := nd.Counters()
		frames += c.FramesSent
		datagrams += c.DatagramsSent
		bytes += c.BytesSent
		dropped += c.Dropped
	}
	var hb int
	for _, mon := range mons {
		hb += mon.Heartbeats + mon.AcksSent
	}
	relFrames := 0
	for _, e := range eps {
		relFrames += e.Frames()
	}
	retx := reliable.TotalRetransmits(eps)
	r.msgs = float64(frames) / float64(n)
	r.layers["lid.prop_msgs"] = float64(st.SentByKind["PROP"])
	r.layers["lid.rej_msgs"] = float64(st.SentByKind["REJ"])
	r.layers["reliable.frames"] = float64(relFrames)
	r.layers["reliable.acks"] = float64(st.SentByKind["ACK"])
	r.layers["reliable.retransmits"] = float64(retx)
	r.layers["reliable.retransmit_frac"] = ratio(float64(retx), float64(relFrames))
	r.layers["reliable.duplicates"] = float64(reliable.TotalDuplicates(eps))
	r.layers["detector.hb_frames"] = float64(hb)
	r.layers["transport.frames_per_datagram"] = ratio(float64(frames), float64(datagrams))
	r.layers["transport.bytes_per_datagram"] = ratio(float64(bytes), float64(datagrams))
	r.layers["transport.bytes_per_node"] = float64(bytes) / float64(n)
	r.layers["transport.datagrams_per_node"] = float64(datagrams) / float64(n)
	r.layers["transport.dropped"] = float64(dropped)
	if p != nil {
		for _, l := range stack {
			l.annotate(p.tr, runID)
		}
		self := selfTimes(stack)
		handle, _ := stack[2].totals()
		_, send := stack[0].totals()
		r.layers["detector.self_s"] = seconds(self[0])
		r.layers["reliable.self_s"] = seconds(self[1])
		r.layers["lid.handler_self_s"] = seconds(self[2])
		r.layers["lid.handler_calls"] = float64(handle.calls)
		r.layers["lid.ns_per_call"] = ratio(float64(self[2]), float64(handle.calls))
		r.layers["transport.send_s"] = seconds(send.ns)
		if allHalted >= 0 {
			r.layers["transport.all_halted_s"] = allHalted.Seconds()
			r.layers["transport.quiesce_tail_s"] = seconds(runNs) - allHalted.Seconds()
		}
		var sent []simnet.Message
		for _, t := range stack[0].nodes {
			sent = append(sent, t.sent...)
		}
		enc, dec, err := replayCodecs(sent)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		r.layers["transport.encode_ns_per_frame"] = enc
		r.layers["transport.decode_ns_per_frame"] = dec
	}
	return m, nil
}

// replayCodecs encodes every frame a run handed to the transport into
// one buffer with AppendFrame, decodes the buffer back with
// DecodeFrame, and returns the mean nanoseconds per frame of each.
func replayCodecs(msgs []simnet.Message) (encNs, decNs float64, err error) {
	buf := make([]byte, 0, 64*len(msgs))
	start := nowNs()
	for _, m := range msgs {
		if buf, err = transport.AppendFrame(buf, m); err != nil {
			return 0, 0, err
		}
	}
	encoded := nowNs()
	for rest := buf; len(rest) > 0; {
		_, k, err := transport.DecodeFrame(rest)
		if err != nil {
			return 0, 0, err
		}
		rest = rest[k:]
	}
	decoded := nowNs()
	n := float64(len(msgs))
	return ratio(float64(encoded-start), n), ratio(float64(decoded-encoded), n), nil
}

// haltWatch polls a cluster every millisecond for the moment every
// node's handler stack has halted.
type haltWatch struct {
	stop, done chan struct{}
	at         time.Duration // -1 until every node halted
}

func watchHalted(nodes []*transport.UDPNode) *haltWatch {
	w := &haltWatch{stop: make(chan struct{}), done: make(chan struct{}), at: -1}
	start := time.Now()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			all := true
			for _, nd := range nodes {
				if !nd.Halted() {
					all = false
					break
				}
			}
			if all {
				w.at = time.Since(start)
				return
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// wait stops the poller, waits for it to exit, and returns the time at
// which every node had halted (-1 if that never happened; also -1 for a
// nil watch).
func (w *haltWatch) wait() time.Duration {
	if w == nil {
		return -1
	}
	close(w.stop)
	<-w.done
	return w.at
}

func (w *matchWorkload) canonicalMsgs() (float64, error) {
	if !w.greedy {
		return 0, nil
	}
	opts := simnet.Options{Seed: w.seed, Latency: simnet.ExponentialLatency(latencyJitter)}
	res, err := lid.RunEvent(w.sys, w.tbl, opts)
	if err != nil {
		return 0, fmt.Errorf("canonical reference run: %w", err)
	}
	return float64(res.Stats.TotalSent()), nil
}

// churnWorkload streams membership feeds through a dynamic.Engine with
// full repair budget, one fresh engine per feed.
type churnWorkload struct {
	n, events int

	seed    uint64
	sys     *pref.System
	eng     *dynamic.Engine // the setup's engine, held until the heap is measured
	spec    dynamic.ChurnSpec
	corrupt bool
}

func (w *churnWorkload) system() *pref.System { return w.sys }

func (w *churnWorkload) cpuBound() bool { return true }

func (w *churnWorkload) setup(seed uint64) (map[string]float64, error) {
	layers := map[string]float64{}
	s, err := randomGraphInstance(w.n, false)(seed, layers)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	eng, err := dynamic.NewEngine(s, dynamic.EngineOptions{Workers: buildWorkers})
	if err != nil {
		return nil, err
	}
	layers["dynamic.new_engine_s"] = time.Since(start).Seconds()
	w.seed, w.sys, w.eng = seed, s, eng
	return layers, nil
}

func (w *churnWorkload) prepare(corrupt bool) error {
	w.eng = nil
	w.spec = dynamic.ChurnSpec{Events: w.events, LeaveProb: 0.55, MinAlive: w.n / 4, Rate: 0.5}
	w.corrupt = corrupt
	return w.spec.Validate()
}

func (w *churnWorkload) canonicalMsgs() (float64, error) { return 0, nil }

// sample k drives feed seed+k through a fresh engine as a closed loop:
// each Submit is made once the previous one returned. An epoch's
// repair latency is the wall time of the Submit call that appended its
// record; the epochs Drain runs at the end are timed as drain_s.
func (w *churnWorkload) sample(k int, p *probe) sampleResult {
	r := sampleResult{layers: map[string]float64{}}
	evs := churnFeed(w.spec, w.n, w.seed+uint64(k))
	var reg *metrics.Registry
	if p != nil {
		reg = metrics.New()
	}
	id := p.begin("engine")
	start := time.Now()
	eng, err := dynamic.NewEngine(w.sys, dynamic.EngineOptions{Workers: buildWorkers, Metrics: reg})
	r.layers["dynamic.new_engine_s"] = time.Since(start).Seconds()
	p.end(id)
	if err != nil {
		r.err = err
		return r
	}
	logs := p.callLogs(0)

	id = p.begin("run")
	meter := startMeter()
	for _, ev := range evs {
		before := len(eng.Records())
		start := nowNs()
		if ev.Kind == dynamic.UpdateLeave {
			err = eng.SubmitLeave(ev.At, ev.Node)
		} else {
			err = eng.SubmitJoin(ev.At, ev.Node)
		}
		end := nowNs()
		if err != nil {
			r.err = fmt.Errorf("feed %d: %w", k, err)
			return r
		}
		if len(eng.Records()) > before {
			r.ops = append(r.ops, seconds(end-start))
		}
		logs.runtimeLog().add("dynamic.submit", start, end)
	}
	drainStart := time.Now()
	eng.Drain()
	r.layers["dynamic.drain_s"] = time.Since(drainStart).Seconds()
	meter.stop(&r)
	p.end(id)
	r.items = len(evs)

	recs := eng.Records()
	var batch, region, rounds, examined int
	vlat := make([]float64, len(recs))
	for j, rec := range recs {
		batch += rec.Batch
		region += rec.Region
		rounds += rec.Rounds
		examined += rec.Stats.Examined
		vlat[j] = rec.Latency()
	}
	epochs := float64(len(recs))
	r.msgs = float64(examined) / float64(w.n)
	r.layers["dynamic.epochs"] = epochs
	r.layers["dynamic.batch_mean"] = ratio(float64(batch), epochs)
	r.layers["dynamic.region_mean"] = ratio(float64(region), epochs)
	r.layers["dynamic.rounds_mean"] = ratio(float64(rounds), epochs)
	r.layers["dynamic.retries"] = float64(eng.TotalRetries())
	r.layers["dynamic.virtual_latency_p50"] = median(vlat)
	r.layers["dynamic.repair_p99_us"] = quantile(r.ops, 0.99) * 1e6
	if reg != nil {
		r.layers["dynamic.prefix_skipped"] = float64(reg.Counter("dynamic_prefix_skipped_total", "").Value())
	}

	id = p.begin("verify")
	start = time.Now()
	o := eng.Overlay()
	want := o.LiveLICInherited()
	if w.corrupt {
		want = dropOneEdge(want)
	}
	switch {
	case !o.Matching().Equal(want):
		r.err = fmt.Errorf("feed %d: matching (%d edges) differs from LiveLICInherited (%d edges)", k, o.Matching().Size(), want.Size())
	case eng.DeferredBound() != 0:
		r.err = fmt.Errorf("feed %d: deferred bound %d after Drain, want 0", k, eng.DeferredBound())
	}
	r.layers["check.verify_s"] = time.Since(start).Seconds()
	p.end(id)
	return r
}

// churnFeed draws a membership feed by dynamic.ChurnSpec's rules — a
// Poisson process at spec.Rate, each event a leave with probability
// spec.LeaveProb unless the population is full (always leave) or at
// spec.MinAlive (always join), the node uniform among the candidates —
// keeping the alive and dead nodes in index sets, so an event costs
// O(1) where ChurnSpec.Schedule scans all n nodes.
func churnFeed(spec dynamic.ChurnSpec, n int, seed uint64) []dynamic.TimedEvent {
	src := rng.New(seed)
	alive := make([]int, n) // alive[:nAlive] are up, the rest down
	pos := make([]int, n)   // pos[x] is x's index in alive
	for i := range alive {
		alive[i], pos[i] = i, i
	}
	nAlive := n
	move := func(x, to int) { // swap x into slot to
		y := alive[to]
		alive[pos[x]], alive[to] = y, x
		pos[y], pos[x] = pos[x], to
	}
	t := 0.0
	evs := make([]dynamic.TimedEvent, 0, spec.Events)
	for i := 0; i < spec.Events; i++ {
		t += src.ExpFloat64() / spec.Rate
		leave := src.Bool(spec.LeaveProb)
		if nAlive == n {
			leave = true
		}
		if nAlive <= spec.MinAlive {
			leave = false
		}
		if !leave && nAlive == n {
			continue
		}
		if leave {
			x := alive[src.Intn(nAlive)]
			move(x, nAlive-1)
			nAlive--
			evs = append(evs, dynamic.TimedEvent{At: t, Kind: dynamic.UpdateLeave, Node: x})
		} else {
			x := alive[nAlive+src.Intn(n-nAlive)]
			move(x, nAlive)
			nAlive++
			evs = append(evs, dynamic.TimedEvent{At: t, Kind: dynamic.UpdateJoin, Node: x})
		}
	}
	return evs
}
