// Command bench is the repository's end-to-end benchmark. It runs one
// workload — event-gnp, event-swarm-greedy, udp-loopback or
// churn-repair — as a closed loop with one client for a fixed time,
// checks every sample's output against an oracle, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash bench/run.sh --workload event-gnp --seed 1 --seconds 20 --trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 adds a traced pass
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

const (
	// minSamples is the fewest samples a run measures after its warm-up
	// sample, however long they take; the deterministic counts are
	// medians over the first minSamples samples.
	minSamples = 10
	// tracedSamples is the length of the traced pass. Its first sample
	// also keeps per-call spans and is left out of the per-layer timings.
	tracedSamples = 10
	// setupBudget bounds the setup repetitions: setup runs at least
	// minSetups times and until setupBudget has passed, at most
	// maxSetups times (exactly minSetups with a fixed sample count).
	setupBudget = 1500 * time.Millisecond
	minSetups   = 3
	maxSetups   = 50
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceOut string
	size     sizes
	// samples, when positive, replaces the time budget with a fixed
	// number of samples per pass (the quick mode of the tests).
	samples int
	// corruptRef makes the output oracle wrong (the negative-control
	// test); every sample must then fail.
	corruptRef bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "event-gnp, event-swarm-greedy, udp-loopback or churn-repair")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fs.Float64("seconds", 20, "how long the measured pass runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*secs > 0) {
		fmt.Fprintln(stderr, "bench: want -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	return execute(config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*secs * float64(time.Second)),
		trace:    *trace == 1,
		traceOut: *traceOut,
		size:     fullSizes,
	}, stdout, stderr)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs the benchmark and prints its report: a readable summary
// on stderr, the JSON line on stdout. It returns the exit code: 0, 1
// when any output check failed (after printing), 2 when the run could
// not be made (nothing printed on stdout).
func execute(cfg config, stdout, stderr io.Writer) int {
	rep, err := run(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 2
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stderr, "  %-32s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d samples failed their output check\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// pass is the samples of one pass, in order.
type pass []sampleResult

// timed returns the samples whose timing counts: every successful
// sample but the pass's first, which warms caches (untraced pass) or
// keeps per-call spans (traced pass).
func (p pass) timed() []sampleResult {
	var out []sampleResult
	for i, s := range p {
		if i > 0 && s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func (p pass) ops() []float64 {
	var out []float64
	for _, s := range p.timed() {
		out = append(out, s.ops...)
	}
	return out
}

func (p pass) failed() int {
	n := 0
	for _, s := range p {
		if s.err != nil {
			n++
		}
	}
	return n
}

// measure runs one pass: samples 0, 1, ... until the budget has passed
// and at least minSamples+1 ran, or exactly cfg.samples of them. The
// calibration kernel runs between samples.
func measure(w workload, k *calibKernel, budget time.Duration, fixed int, tr *tracer, log io.Writer) pass {
	var ps pass
	start := time.Now()
	for i := 0; ; i++ {
		if fixed > 0 {
			if i >= fixed {
				break
			}
		} else if i > minSamples && time.Since(start) >= budget {
			break
		}
		k.maybe()
		var p *probe
		if tr != nil {
			id := tr.begin("sample", 0, i)
			p = &probe{tr: tr, parent: id, sample: i, keepCalls: i == 0}
		}
		s := w.sample(i, p)
		if p != nil {
			tr.end(p.parent)
		}
		if s.err != nil {
			fmt.Fprintf(log, "bench: %v\n", s.err)
		}
		ps = append(ps, s)
	}
	k.run()
	return ps
}

// run executes one workload: repeated setup, the oracle, the untraced
// pass and, with cfg.trace, the traced pass.
func run(cfg config, log io.Writer) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.size)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
		tr.begin("workload:"+cfg.workload, -1, -1)
	}
	k := newCalibKernel()
	k.run()

	var setupS []float64
	setupLayers := map[string][]float64{}
	setupStart := time.Now()
	setups := maxSetups
	if cfg.samples > 0 {
		setups = minSetups
	}
	for i := 0; i < setups && (i < minSetups || time.Since(setupStart) < setupBudget); i++ {
		runtime.GC()
		id := tr.begin("setup", 0, -1)
		start := time.Now()
		layers, err := w.setup(cfg.seed)
		setupS = append(setupS, time.Since(start).Seconds())
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		for name, v := range layers {
			setupLayers[name] = append(setupLayers[name], v)
		}
		k.maybe()
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6
	if err := w.prepare(cfg.corruptRef); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	fmt.Fprintf(log, "bench: %s seed=%d gomaxprocs=%d setups=%d\n", cfg.workload, cfg.seed, runtime.GOMAXPROCS(0), len(setupS))

	untraced := measure(w, k, cfg.seconds, cfg.samples, nil, log)
	rep := &report{Attempted: len(untraced), Failed: untraced.failed()}
	scale := calibRefMs / median(k.ms)
	fmt.Fprintf(log, "bench: %d samples, calibration median %.3f ms over %d runs\n", len(untraced), median(k.ms), len(k.ms))
	values := map[string]float64{}
	defs := endToEnd
	if !cfg.trace {
		opScale := 1.0
		if w.cpuBound() {
			opScale = scale
		}
		endToEndValues(values, untraced, setupS, heapMB, scale, opScale)
	} else {
		fixed := tracedSamples
		if cfg.samples > 0 {
			fixed = cfg.samples
		}
		traced := measure(w, k, 0, fixed, tr, log)
		rep.Attempted += len(traced)
		rep.Failed += traced.failed()
		canonical, err := w.canonicalMsgs()
		if err != nil {
			return nil, err
		}
		perLayerValues(values, w, untraced, traced, canonical, setupS, setupLayers, k)
		values["check.failed_frac"] = ratio(float64(rep.Failed), float64(rep.Attempted))
		tr.end(0)
		if cfg.traceOut != "" {
			if err := tr.writeChrome(cfg.traceOut); err != nil {
				return nil, err
			}
		}
		defs = perLayer
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return rep, nil
}

// endToEndValues computes the end-to-end metrics of an untraced pass.
// Setup time is scaled to reference seconds by the calibration factor
// scale (see calibRefMs); the samples' latency, throughput and CPU time
// by opScale, which is 1 where the workload is not CPU-bound.
func endToEndValues(v map[string]float64, p pass, setupS []float64, heapMB, scale, opScale float64) {
	timed := p.timed()
	ops := p.ops()
	var wall, cpu float64
	var items int
	var allocs []float64
	for _, s := range timed {
		wall += s.wall.Seconds()
		cpu += s.cpu.Seconds()
		items += s.items
		allocs = append(allocs, float64(s.alloc)/1e6)
	}
	v["setup_s"] = median(setupS) * scale
	v["latency_p50_ms"] = quantile(ops, 0.5) * 1e3 * opScale
	v["latency_p90_ms"] = quantile(ops, 0.9) * 1e3 * opScale
	v["throughput_per_s"] = ratio(float64(items), wall) / opScale
	v["msgs_per_node"] = countMedian(p, func(s sampleResult) float64 { return s.msgs })
	v["cpu_ms_per_sample"] = ratio(cpu, float64(len(timed))) * 1e3 * opScale
	v["alloc_mb_per_sample"] = median(allocs)
	v["heap_mb"] = heapMB
}

// countMedian is the median of a deterministic count over the first
// minSamples samples, so it does not depend on how many samples the
// time budget allowed.
func countMedian(p pass, f func(sampleResult) float64) float64 {
	var xs []float64
	for i, s := range p {
		if i < minSamples && s.err == nil {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

// perLayerValues computes the per-layer metrics: the traced samples'
// means (deterministic counts repeat exactly), the setup medians, and
// the trace-only builds timed here. canonical is the message count of a
// canonical run of the first traced sample's instance (0 when the
// workload has no scheduler to compare).
func perLayerValues(v map[string]float64, w workload, untraced, traced pass, canonical float64,
	setupS []float64, setupLayers map[string][]float64, k *calibKernel) {
	timed := traced.timed()
	sums := map[string]float64{}
	for _, s := range timed {
		for name, x := range s.layers {
			sums[name] += x
		}
	}
	for name, sum := range sums {
		v[name] = sum / float64(len(timed))
	}
	for name, xs := range setupLayers {
		v[name] = median(xs)
	}
	if canonical > 0 && len(traced) > 0 && traced[0].err == nil {
		saved := canonical - traced[0].layers["lid.prop_msgs"] - traced[0].layers["lid.rej_msgs"]
		v["scheduler.msgs_saved_frac"] = ratio(saved, canonical)
		v["scheduler.ns_per_saved_msg"] = ratio(v["scheduler.next_batch_s"]*1e9, saved)
	}

	s := w.system()
	t1, tbl := timeTable(s, 1)
	t2, _ := timeTable(s, 2)
	v["satisfaction.table_w1_s"], v["satisfaction.table_w2_s"] = t1, t2
	v["satisfaction.table_speedup_w2"] = ratio(t1, t2)
	l1, l2 := timeLIC(s, tbl, 1), timeLIC(s, tbl, 2)
	v["matching.lic_w1_s"], v["matching.lic_w2_s"] = l1, l2
	v["matching.lic_speedup_w2"] = ratio(l1, l2)

	var gcs, pause float64
	ut := untraced.timed()
	for _, s := range ut {
		gcs += float64(s.gcs)
		pause += s.gcPause.Seconds()
	}
	v["go.gc_cycles"] = ratio(gcs, float64(len(ut)))
	v["go.gc_pause_s"] = ratio(pause, float64(len(ut)))
	v["machine.calib_ms"] = median(k.ms)
	v["raw.setup_s"] = median(setupS)
	raw := median(untraced.ops())
	v["raw.latency_p50_ms"] = raw * 1e3
	if raw > 0 {
		v["trace.overhead_frac"] = median(traced.ops())/raw - 1
	}
}

// timeTable is the median time of three weight-table builds at the given
// worker count, weight lists included.
func timeTable(s *pref.System, workers int) (float64, *satisfaction.Table) {
	var ts []float64
	var tbl *satisfaction.Table
	for i := 0; i < 3; i++ {
		start := time.Now()
		tbl = satisfaction.NewTableParallel(s, workers)
		tbl.SortedNeighbors(s, 0)
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), tbl
}

// timeLIC is the median time of three LIC scans at the given worker
// count.
func timeLIC(s *pref.System, tbl *satisfaction.Table, workers int) float64 {
	var ts []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		matching.LICParallel(s, tbl, workers)
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts)
}
