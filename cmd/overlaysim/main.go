// Command overlaysim runs one overlay-matching simulation end to end
// and prints a human-readable report: the topology, the preference
// metric, whether the preference system is acyclic, the distributed
// run's message/round statistics, and the satisfaction the peers
// achieved (with the Theorem-3 guarantee for reference).
//
// Examples:
//
//	overlaysim -topology gnp -n 200 -p 0.05 -b 3 -metric random
//	overlaysim -topology geometric -n 500 -radius 0.08 -metric distance -runtime goroutine
//	overlaysim -topology ba -n 300 -m 4 -b 2 -metric transactions -jitter 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/transport"
)

func main() {
	var (
		topology = flag.String("topology", "gnp", "gnp | geometric | ba | ws | ring | grid | complete | tree")
		n        = flag.Int("n", 100, "number of peers")
		p        = flag.Float64("p", 0.05, "edge probability (gnp)")
		radius   = flag.Float64("radius", 0.15, "connection radius (geometric)")
		mAttach  = flag.Int("m", 3, "attachments per node (ba)")
		k        = flag.Int("k", 6, "lattice degree (ws, even)")
		beta     = flag.Float64("beta", 0.2, "rewiring probability (ws)")
		rows     = flag.Int("rows", 10, "rows (grid)")
		quota    = flag.Int("b", 3, "connection quota per peer")
		metric   = flag.String("metric", "random", "random | symmetric | distance | resource | transactions")
		seed     = flag.Uint64("seed", 1, "seed for topology, preferences and latencies")
		runtime_ = flag.String("runtime", "event", "event | goroutine (in-process cluster) | centralized | udp (loopback real-socket cluster; needs -reliable)")
		jitter   = flag.Float64("jitter", 3, "latency jitter scale (event runtime)")
		workload = flag.String("workload", "", "load a frozen workload JSON (see graphgen -format workload) instead of generating")
		dotOut   = flag.String("dot", "", "write the final overlay as Graphviz DOT to this file")
		spansOut = flag.String("trace-spans", "", "write the causal span trace (Lamport clocks, protocol spans) to this file")
		spansFmt = flag.String("trace-spans-format", "ndjson", "span trace format: ndjson | chrome | tree | log (one line per delivery)")
		probeInt = flag.Float64("probe-interval", 0, "virtual-time spacing of per-round stability probes (0 = off; event runtime only)")
		metOut   = flag.Bool("metrics", false, "print the run's metric snapshot after the report")
		metFmt   = flag.String("metrics-format", "text", "metric snapshot format: text | json | prom")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		faultStr = flag.String("faults", "off", "fault-injection spec, e.g. drop=0.1,dup=0.05,partition=20:60:0-9 (see internal/faults)")
		faultSd  = flag.Uint64("faults-seed", 0, "seed of the injection stream (0 = derive from -seed)")
		reliab   = flag.Bool("reliable", false, "wrap LID in the ack/retransmit substrate (required for drop/corrupt faults)")
		rto      = flag.Float64("rto", 30, "retransmission timeout in virtual time units (-reliable)")
		adaptRTO = flag.Bool("adaptive-rto", false, "RFC-6298 adaptive retransmission timeout with backoff (-reliable)")
		detStr   = flag.String("detector", "off", "heartbeat failure detector: off | on | hb=5,phi=8,... (see internal/detector)")
		replay   = flag.String("replay", "", "re-execute a frozen replay file (see faults.Explore) and report the verdict")
		workers  = flag.Int("workers", 0, "goroutines for the deterministic parallel weight-table build (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		churnStr = flag.String("churn", "off", `run the churn-survival engine instead of the distributed sim: "events=200,leave=0.5,minalive=8,rate=2" (see internal/dynamic)`)
		repairK  = flag.Int("repair-rounds", 0, "truncate each repair epoch after this many cascade rounds (0 = full budget; needs -churn)")
		shedD    = flag.Int("shed-depth", 0, "shed epochs whose batch exceeds this to one-round backup placement (0 = never; needs -churn)")
		schedStr = flag.String("scheduler", "canonical", "proposal admission order: canonical | greedy | greedy:batch=N (greedy needs -runtime event; same matching, fewer messages)")
		verbose  = flag.Bool("v", false, "print per-peer connections")
	)
	flag.Parse()

	if *replay != "" {
		runReplayFile(*replay)
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			writeFileWith(*memProf, func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			})
		}()
	}

	cfg, err := validateFlags(cliFlags{
		runtime:      *runtime_,
		rto:          *rto,
		adaptiveRTO:  *adaptRTO,
		reliable:     *reliab,
		detector:     *detStr,
		faults:       *faultStr,
		traceSpans:   *spansOut,
		spansFormat:  *spansFmt,
		metricsFmt:   *metFmt,
		probeInt:     *probeInt,
		churn:        *churnStr,
		repairRounds: *repairK,
		shedDepth:    *shedD,
		scheduler:    *schedStr,
	})
	if err != nil {
		fail("%v", err)
	}
	fseed := *faultSd
	if fseed == 0 {
		fseed = *seed ^ 0x5fa715ca11edc0de
	}
	opts := reportOpts{seed: *seed, runtime: *runtime_, jitter: *jitter,
		verbose: *verbose, dotPath: *dotOut,
		spansPath: *spansOut, spansFormat: *spansFmt, probeInterval: *probeInt,
		showMetrics: *metOut, metricsFormat: *metFmt,
		faults: cfg.spec, faultsSeed: fseed, reliable: *reliab, rto: *rto,
		adaptiveRTO: *adaptRTO, det: cfg.det, workers: *workers,
		churn: cfg.churn, repairRounds: *repairK, shedDepth: *shedD,
		sched: cfg.sched}

	if *workload != "" {
		runWorkloadFile(*workload, opts)
		return
	}

	src := rng.New(*seed)
	var g *graph.Graph
	var coords [][2]float64
	switch *topology {
	case "gnp":
		g = gen.GNP(src.Split(), *n, *p)
	case "geometric":
		g, coords = gen.Geometric(src.Split(), *n, *radius)
	case "ba":
		g = gen.BarabasiAlbert(src.Split(), *n, *mAttach)
	case "ws":
		g = gen.WattsStrogatz(src.Split(), *n, *k, *beta)
	case "ring":
		g = gen.Ring(*n)
	case "grid":
		cols := (*n + *rows - 1) / *rows
		g = gen.Grid(*rows, cols)
	case "complete":
		g = gen.Complete(*n)
	case "tree":
		g = gen.RandomTree(src.Split(), *n)
	default:
		fail("unknown topology %q", *topology)
	}

	var m pref.Metric
	switch *metric {
	case "random":
		m = pref.NewRandomMetric(src.Split())
	case "symmetric":
		m = pref.NewSymmetricRandomMetric(src.Split())
	case "distance":
		if coords == nil {
			coords = make([][2]float64, g.NumNodes())
			for i := range coords {
				coords[i] = [2]float64{src.Float64(), src.Float64()}
			}
		}
		m = pref.DistanceMetric{Coords: coords}
	case "resource":
		capacity := make([]float64, g.NumNodes())
		for i := range capacity {
			capacity[i] = src.Float64()
		}
		m = pref.ResourceMetric{Capacity: capacity}
	case "transactions":
		hist := make([][]float64, g.NumNodes())
		for i := range hist {
			hist[i] = make([]float64, g.NumNodes())
			for _, j := range g.Neighbors(i) {
				hist[i][j] = src.NormFloat64()
			}
		}
		m = pref.TransactionMetric{History: hist}
	default:
		fail("unknown metric %q", *metric)
	}

	sys, err := pref.Build(g, m, pref.UniformQuota(*quota))
	if err != nil {
		fail("building preferences: %v", err)
	}
	fmt.Printf("overlay: %s, n=%d m=%d, avg degree %.2f (min %d, max %d)\n",
		*topology, g.NumNodes(), g.NumEdges(), g.AvgDegree(), g.MinDegree(), g.MaxDegree())
	fmt.Printf("preferences: metric=%s, quota b=%d\n", *metric, *quota)
	runAndReport(sys, opts)
}

// reportOpts carries the run/report configuration.
type reportOpts struct {
	seed          uint64
	runtime       string
	jitter        float64
	verbose       bool
	dotPath       string
	spansPath     string
	spansFormat   string  // ndjson | chrome | tree | log
	probeInterval float64 // 0 = probing off
	showMetrics   bool
	metricsFormat string // text | json | prom
	faults        faults.Spec
	faultsSeed    uint64
	reliable      bool
	rto           float64
	adaptiveRTO   bool
	det           detector.Config
	workers       int
	churn         dynamic.ChurnSpec
	repairRounds  int
	shedDepth     int
	sched         lid.SchedulerSpec
}

// policy returns the run's fault-injection policy (nil when -faults is
// off, keeping the run byte-identical to earlier releases).
func (o reportOpts) policy() simnet.LinkPolicy {
	if o.faults.IsZero() {
		return nil
	}
	return faults.NewInjector(o.faults, o.faultsSeed)
}

// runReplayFile re-executes a frozen fault replay (faults.ReplayFile)
// and reports whether the recorded violation reproduces. Exit status:
// 0 when the re-execution is consistent with the file (the recorded
// violation reproduces, or a clean file stays clean), 1 otherwise.
func runReplayFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	rf, err := faults.LoadReplay(f)
	f.Close()
	if err != nil {
		fail("%v", err)
	}
	w := rf.Workload
	fmt.Printf("replay %s: %s n=%d b=%d metric=%s seed=%d, spec %s, %d events, reliable=%v\n",
		path, w.Topology, w.N, w.B, w.Metric, rf.Seed, rf.Spec, len(rf.Events), rf.Reliable)
	if rf.Err != "" {
		fmt.Printf("recorded violation: %s\n", rf.Err)
	}
	out, err := rf.Run()
	if err != nil {
		fail("replay: %v", err)
	}
	switch {
	case out.Violation == "" && rf.Err == "":
		fmt.Println("re-execution: clean (no recorded violation, none reproduced)")
	case out.Violation == "":
		fmt.Println("re-execution: CLEAN — the recorded violation did NOT reproduce")
		os.Exit(1)
	case out.Matches:
		fmt.Printf("re-execution: violation reproduced: %s\n", out.Violation)
	case rf.Err == "":
		fmt.Printf("re-execution: violation found (file recorded none): %s\n", out.Violation)
		os.Exit(1)
	default:
		fmt.Printf("re-execution: DIFFERENT violation: %s\n", out.Violation)
		os.Exit(1)
	}
}

// runWorkloadFile loads a frozen workload and simulates it.
func runWorkloadFile(path string, opts reportOpts) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	sys, err := pref.ReadJSON(f)
	if err != nil {
		fail("%v", err)
	}
	g := sys.Graph()
	fmt.Printf("workload %s: n=%d m=%d, avg degree %.2f\n",
		path, g.NumNodes(), g.NumEdges(), g.AvgDegree())
	runAndReport(sys, opts)
}

// runAndReport executes the selected runtime and prints the report.
func runAndReport(sys *pref.System, opts reportOpts) {
	if !opts.churn.IsZero() {
		runChurnReport(sys, opts)
		return
	}
	seed, runtime_, jitter, verbose := opts.seed, opts.runtime, opts.jitter, opts.verbose
	g := sys.Graph()
	tbl := satisfaction.NewTableParallel(sys, opts.workers)
	var reg *metrics.Registry
	if opts.showMetrics {
		reg = metrics.New()
	}
	var rec *obs.Recorder
	if opts.spansPath != "" {
		rec = obs.NewRecorder(g.NumNodes())
	}
	// The probe series need a registry even when -metrics is off; a
	// private one keeps the report output unchanged in that case.
	var prober *obs.Prober
	probeReg := reg
	if opts.probeInterval > 0 && probeReg == nil {
		probeReg = metrics.New()
	}
	fmt.Printf("acyclic=%v; guarantee: LID achieves >= %.4f of optimal total satisfaction (Theorem 3)\n\n",
		pref.IsAcyclic(sys), satisfaction.Theorem3Bound(maxInt(sys.MaxQuota(), 1)))

	policy := opts.policy()
	var inj *faults.Injector
	if in, ok := policy.(*faults.Injector); ok {
		inj = in
	}
	var eps []*reliable.Endpoint
	var mons []*detector.Monitor
	// wrap stacks the optional layers inside-out: transport below the
	// failure detector, mirroring dlid.RunSelfHeal.
	wrap := func(handlers []simnet.Handler) []simnet.Handler {
		if opts.reliable {
			eps = reliable.WrapConfig(handlers, reliable.Config{RTO: opts.rto, Adaptive: opts.adaptiveRTO})
			handlers = reliable.Handlers(eps)
		}
		if opts.det.Enabled() {
			adj := make([][]int, g.NumNodes())
			for i := range adj {
				adj[i] = g.Neighbors(i)
			}
			mons = detector.Wrap(handlers, adj, opts.det)
			handlers = detector.Handlers(mons)
		}
		return handlers
	}

	var result *matching.Matching
	start := time.Now()
	if runtime_ == "centralized" {
		result = matching.LIC(sys, tbl)
		fmt.Printf("centralized run (LIC scan): %v\n", time.Since(start))
	} else {
		// Every distributed runtime runs the same stack: LID nodes, the
		// optional layers, the runtime's Transport, then lid.Finish.
		nodes := lid.NewNodes(sys, tbl)
		var tr simnet.Transport
		var cluster *transport.Cluster
		switch runtime_ {
		case "event":
			ropts := simnet.Options{
				Seed:    seed,
				Latency: latency(jitter),
				Metrics: reg,
				Policy:  policy,
				Obs:     rec,
			}
			if opts.sched.Greedy() {
				// The admitter watches the LID state machines directly, so
				// the reliable/detector wrapping stays transparent to it.
				ropts.Admitter = lid.NewGreedyAdmitter(sys, tbl, nodes, opts.sched)
			}
			// The sampler closes over the runner (for the cumulative send
			// totals), which does not exist until after the options are
			// final — hence the two-step wiring, mirroring RunEventProbed.
			var runner *simnet.Runner
			if opts.probeInterval > 0 {
				optimum := matching.LIC(sys, tbl).Weight(sys)
				sampler := lid.StabilitySampler(sys, tbl, nodes, func() (int64, int64) {
					return runner.SentTotals()
				})
				prober = obs.NewProber(probeReg, opts.probeInterval, g.NumEdges(), optimum, sampler)
				ropts.Probe = prober.Probe
				ropts.ProbeInterval = opts.probeInterval
			}
			runner = simnet.NewRunner(g.NumNodes(), ropts)
			tr = runner
		case "goroutine", "udp":
			// A transport.Cluster: one goroutine per node, every message
			// an encoded frame, handed over in process or, on udp, sent
			// across the kernel as coalesced loopback datagrams.
			newCluster := transport.NewMemoryCluster
			if runtime_ == "udp" {
				newCluster = transport.NewLoopbackCluster
			}
			c, err := newCluster(g.NumNodes(), transport.ClusterConfig{
				Timeout: 2 * time.Minute,
				Policy:  policy,
				Obs:     rec,
			})
			if err != nil {
				fail("run: %v", err)
			}
			cluster, tr = c, c
		default:
			fail("unknown runtime %q", runtime_)
		}
		st, err := tr.Run(wrap(lid.Handlers(nodes)))
		if err != nil {
			fail("run: %v", err)
		}
		prober.PublishSummary(probeReg, nil)
		res, err := lid.Finish(nodes, st, reg)
		if err != nil {
			fail("run: %v", err)
		}
		result = res.Matching
		switch runtime_ {
		case "event":
			fmt.Printf("distributed run (event simulator, jitter %.1f, scheduler %s): %v\n",
				jitter, opts.sched, time.Since(start))
			fmt.Printf("  messages: %d total (%d PROP, %d REJ), %.2f per peer, max %d\n",
				st.TotalSent(), st.SentByKind["PROP"], st.SentByKind["REJ"],
				float64(st.TotalSent())/float64(g.NumNodes()), st.MaxSentByNode())
			fmt.Printf("  virtual time to quiescence: %.2f\n", st.FinalTime)
			if prober != nil {
				s := prober.RoundsToEps(nil)
				fmt.Printf("  stability: %d probes every %.1f; rounds to eps 0.1/0.01/0.001/0: %.0f / %.0f / %.0f / %.0f (-1 = never)\n",
					len(prober.Curve()), opts.probeInterval,
					s[obs.EpsKey(0.1)], s[obs.EpsKey(0.01)], s[obs.EpsKey(0.001)], s[obs.EpsKey(0)])
			}
		case "goroutine", "udp":
			var datagrams, bytesOut int64
			for _, nd := range cluster.Nodes() {
				c := nd.Counters()
				datagrams += c.DatagramsSent
				bytesOut += c.BytesSent
				nd.PublishMetrics(reg)
			}
			label, wire := "goroutines, in-process cluster", fmt.Sprintf("%d frames handed over in process", st.TotalSent())
			if runtime_ == "udp" {
				label, wire = "udp loopback cluster", fmt.Sprintf("%d frames coalesced into %d datagrams, %d bytes",
					st.TotalSent(), datagrams, bytesOut)
			}
			fmt.Printf("distributed run (%s): %v\n", label, time.Since(start))
			fmt.Printf("  messages: %d total (%d PROP, %d REJ)\n",
				st.TotalSent(), st.SentByKind["PROP"], st.SentByKind["REJ"])
			fmt.Printf("  wire: %s, %d dropped\n", wire, st.Dropped)
		}
		if inj != nil {
			fmt.Printf("  faults: %s -> %d injections over %d sends\n",
				opts.faults, len(inj.Events()), inj.Sends())
		}
		if eps != nil {
			reliable.PublishMetrics(reg, eps)
			mode := "static"
			if opts.adaptiveRTO {
				mode = "adaptive"
			}
			fmt.Printf("  transport: rto %.1f (%s), %d retransmits, %d duplicates suppressed, %d corrupt discarded\n",
				opts.rto, mode, reliable.TotalRetransmits(eps), reliable.TotalDuplicates(eps), reliable.TotalCorrupted(eps))
		}
		if mons != nil {
			detector.PublishMetrics(reg, mons)
			fmt.Printf("  detector: %s -> %d suspicions, %d restores (%d HB, %d HB-ACK)\n",
				opts.det, detector.TotalSuspicions(mons), detector.TotalRestores(mons),
				st.SentByKind["HB"], st.SentByKind["HB-ACK"])
		}
	}

	per := result.PerNodeSatisfaction(sys)
	sum := stats.Summarize(per)
	fmt.Printf("\nmatching: %d connections (quota fill %.1f%%), total weight %.4f\n",
		result.Size(), 100*fill(sys, result), result.Weight(sys))
	fmt.Printf("satisfaction: total %.4f, mean %.4f, min %.4f, median %.4f, fairness %.4f\n",
		result.TotalSatisfaction(sys), sum.Mean, sum.Min, sum.Median, stats.JainFairness(per))

	if verbose {
		fmt.Println("\nper-peer connections:")
		for i := 0; i < g.NumNodes(); i++ {
			fmt.Printf("  %4d (b=%d, S=%.3f): %v\n", i, sys.Quota(i), per[i], result.Connections(i))
		}
	}

	if opts.dotPath != "" {
		writeFileWith(opts.dotPath, func(w io.Writer) error {
			return writeDOT(w, sys, result)
		})
		fmt.Printf("wrote Graphviz overlay to %s\n", opts.dotPath)
	}
	if opts.spansPath != "" {
		writeFileWith(opts.spansPath, func(w io.Writer) error {
			return rec.WriteFormat(w, opts.spansFormat)
		})
		fmt.Printf("wrote span trace (%s, %d events) to %s\n",
			opts.spansFormat, rec.Len(), opts.spansPath)
	}
	if reg != nil {
		fmt.Println("\nmetrics:")
		if err := reg.Snapshot().WriteFormat(os.Stdout, opts.metricsFormat); err != nil {
			fail("metrics: %v", err)
		}
	}
}

// writeFileWith creates path and streams content through fn.
func writeFileWith(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fail("%v", err)
	}
}

func latency(jitter float64) simnet.LatencyFunc {
	if jitter <= 0 {
		return simnet.UnitLatency
	}
	return simnet.ExponentialLatency(jitter)
}

func fill(s *pref.System, m *matching.Matching) float64 {
	var used, want int
	for i := 0; i < s.Graph().NumNodes(); i++ {
		used += m.DegreeOf(i)
		want += s.Quota(i)
	}
	if want == 0 {
		return 1
	}
	return float64(used) / float64(want)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "overlaysim: "+format+"\n", args...)
	os.Exit(1)
}
