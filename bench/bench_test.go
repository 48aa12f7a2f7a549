package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/simnet"
)

// quickSizes make every workload run in well under a second.
var quickSizes = sizes{gnpN: 300, swarmN: 300, udpN: 12, churnN: 400, churnEvents: 300}

var workloadNames = []string{"event-gnp", "event-swarm-greedy", "udp-loopback", "churn-repair"}

func quick(name string, trace bool) config {
	return config{workload: name, seed: 7, trace: trace, size: quickSizes, samples: 3}
}

func mustRun(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", cfg.workload, cfg.trace, err)
	}
	return rep
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", layers, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || len(d.name) > 64 || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q breaks the name grammar", d.name, d.unit)
		}
	}
}

// checkReport asserts a report carries exactly the metrics of defs with
// their units, all finite, and that every sample passed its check.
func checkReport(t *testing.T, cfg config, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", cfg.workload, cfg.trace, rep.Correct, rep.Failed, rep.Attempted)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s trace=%v: %d metrics, want %d", cfg.workload, cfg.trace, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s trace=%v: metric %s missing", cfg.workload, cfg.trace, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s trace=%v: %s unit %q, want %q", cfg.workload, cfg.trace, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s trace=%v: %s = %v", cfg.workload, cfg.trace, d.name, m.Value)
		case !cfg.trace && m.Value <= 0:
			t.Errorf("%s: end-to-end %s = %v, must never be 0", cfg.workload, d.name, m.Value)
		}
	}
}

// TestQuickWorkloads runs every workload at tiny size, untraced and
// traced, and for the deterministic ones a second time: counts must
// repeat exactly for a fixed seed.
func TestQuickWorkloads(t *testing.T) {
	counts := map[string][]string{
		"event-gnp":          {"msgs_per_node", "simnet.bytes_per_node", "simnet.virtual_rounds", "lid.prop_msgs"},
		"event-swarm-greedy": {"msgs_per_node", "simnet.bytes_per_node", "simnet.virtual_rounds", "scheduler.rounds"},
		"churn-repair":       {"msgs_per_node", "dynamic.epochs", "dynamic.retries"},
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := quick(name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			rep := mustRun(t, cfg)
			checkReport(t, cfg, rep, defs)
			if len(counts[name]) == 0 {
				continue
			}
			again := mustRun(t, cfg)
			for _, c := range counts[name] {
				a, ok := rep.Metrics[c]
				if !ok {
					continue // reported by the other pass
				}
				if b := again.Metrics[c]; a.Value != b.Value {
					t.Errorf("%s trace=%v: %s = %v then %v for one seed", name, trace, c, a.Value, b.Value)
				}
			}
		}
	}
}

func TestTraceWritesChromeJSON(t *testing.T) {
	cfg := quick("event-swarm-greedy", true)
	cfg.traceOut = t.TempDir() + "/trace.json"
	mustRun(t, cfg)
	raw, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range doc.TraceEvents {
		seen[e.Name]++
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
	for _, want := range []string{"workload:event-swarm-greedy", "setup", "sample", "nodes", "run", "assemble", "verify", "lid.call", "lid.send", "scheduler.next_batch"} {
		if seen[want] == 0 {
			t.Errorf("no %q span in the trace (have %v)", want, seen)
		}
	}
}

// TestNegativeControl feeds a wrong reference matching: every sample
// must fail, the result must still be printed, and the exit code be 1.
func TestNegativeControl(t *testing.T) {
	for _, name := range []string{"event-gnp", "churn-repair"} {
		cfg := quick(name, false)
		cfg.corruptRef = true
		var out bytes.Buffer
		if code := execute(cfg, &out, io.Discard); code != 1 {
			t.Errorf("%s: exit code %d with a wrong oracle, want 1", name, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("%s: last line is not the result: %v", name, err)
		}
		if rep.Correct || rep.Attempted == 0 || rep.Failed != rep.Attempted {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want every sample failed", name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "event-gnp", "--trace", "2"},
		{"--workload", "event-gnp", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := realMain(args, &out, io.Discard); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, out.String())
		}
	}
}

// TestDecoratorsChangeNothing runs both event workloads' protocol with
// and without the timing decorators: matching, Stats and byte totals
// must be identical.
func TestDecoratorsChangeNothing(t *testing.T) {
	for _, name := range []string{"event-gnp", "event-swarm-greedy"} {
		w, _ := newWorkload(name, quickSizes)
		mw := w.(*matchWorkload)
		if _, err := mw.setup(3); err != nil {
			t.Fatal(err)
		}
		runOnce := func(traced bool) (simnet.Stats, int64, string) {
			nodes := lid.NewNodes(mw.sys, mw.tbl)
			hs := lid.Handlers(nodes)
			opts := simnet.Options{Seed: 5, Latency: simnet.ExponentialLatency(latencyJitter)}
			if mw.greedy {
				opts.Admitter = lid.NewGreedyAdmitter(mw.sys, mw.tbl, nodes, lid.SchedulerSpec{Kind: lid.SchedGreedy})
			}
			if traced {
				_, hs = decorate("lid", hs, newCallLogs(len(hs), 100))
				if opts.Admitter != nil {
					opts.Admitter = &timedAdmitter{inner: opts.Admitter}
				}
			}
			runner := simnet.NewRunner(len(hs), opts)
			st, err := runner.Run(hs)
			if err != nil {
				t.Fatal(err)
			}
			m, err := lid.BuildMatching(nodes)
			if err != nil {
				t.Fatal(err)
			}
			_, b := runner.SentTotals()
			return st, b, m.String()
		}
		st0, b0, m0 := runOnce(false)
		st1, b1, m1 := runOnce(true)
		if !reflect.DeepEqual(st0, st1) || b0 != b1 || m0 != m1 {
			t.Errorf("%s: decorated run differs:\n%v %d\n%v %d", name, st0, b0, st1, b1)
		}
	}
}

// fakeCtx is a Context with a chosen set of optional capabilities.
type fakeCtx struct{ simnet.Context }

type timerFake struct{ fakeCtx }

func (timerFake) SetTimer(float64, simnet.Message) {}

type obsFake struct{ fakeCtx }

func (obsFake) Observer() *obs.Recorder { return nil }

type bothFake struct{ timerFake }

func (bothFake) Observer() *obs.Recorder { return nil }

type linkDownFake struct{ simnet.Handler }

func (linkDownFake) HandleLinkDown(simnet.Context, int) {}

type allUpcallsFake struct{ linkDownFake }

func (allUpcallsFake) HandleSuspect(simnet.Context, int) {}
func (allUpcallsFake) HandleRestore(simnet.Context, int) {}

func caps(v any) [4]bool {
	_, a := v.(simnet.TimerSetter)
	_, b := v.(simnet.Observable)
	_, c := v.(simnet.SuspectHandler)
	_, d := v.(simnet.LinkDownHandler)
	return [4]bool{a, b, c, d}
}

// TestDecoratorsKeepInterfaces checks that a decorator has exactly the
// optional interfaces of the value it wraps.
func TestDecoratorsKeepInterfaces(t *testing.T) {
	nt := &nodeTimer{}
	for _, ctx := range []simnet.Context{fakeCtx{}, timerFake{}, obsFake{}, bothFake{}} {
		if got, want := caps(nt.wrap(ctx)), caps(ctx); got != want {
			t.Errorf("context %T: decorated capabilities %v, want %v", ctx, got, want)
		}
	}
	s := quickSystem(t)
	node := lid.NewNode(s.sys, s.tbl, 0)
	ep := reliable.NewEndpoint(node, 40, 0)
	mon := detector.NewMonitor(ep, nil, detector.Default())
	for _, h := range []simnet.Handler{node, ep, mon, linkDownFake{node}, allUpcallsFake{linkDownFake{node}}} {
		_, out := decorate("x", []simnet.Handler{h}, nil)
		if got, want := caps(out[0]), caps(h); got != want {
			t.Errorf("handler %T: decorated capabilities %v, want %v", h, got, want)
		}
	}
}

func quickSystem(t *testing.T) *matchWorkload {
	t.Helper()
	w, _ := newWorkload("event-gnp", quickSizes)
	mw := w.(*matchWorkload)
	if _, err := mw.setup(1); err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestSelfTimes checks the self-time algebra on a stack whose time is
// known: outer runs 10 ns of its own code, sends once for 3 ns of
// runtime time, and calls inner, which runs 5 ns of its own code and
// sends through outer (2 ns of outer code, 4 ns of runtime).
func TestSelfTimes(t *testing.T) {
	outer := &layer{nodes: []*nodeTimer{{handle: acc{1, 10 + 3 + (5 + 2 + 4)}, send: acc{2, 3 + 4}}}}
	inner := &layer{nodes: []*nodeTimer{{handle: acc{1, 5 + 2 + 4}, send: acc{1, 2 + 4}}}}
	if got, want := selfTimes([]*layer{outer, inner}), []int64{10 + 2, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCalibKernelIsStandalone(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") || first == "overlaymatch" {
			t.Errorf("calib.go imports %q; the kernel may use the standard library only", path)
		}
	}
	k := newCalibKernel()
	if allocs := testing.AllocsPerRun(3, func() { k.once() }); allocs != 0 {
		t.Errorf("calibration kernel allocates %v times per run", allocs)
	}
}

// TestChurnFeedFollowsSpec checks the feed generator against
// ChurnSpec's rules: no leave of a dead node or join of a live one,
// the population never below MinAlive, and the feed fixed by its seed.
func TestChurnFeedFollowsSpec(t *testing.T) {
	spec := dynamic.ChurnSpec{Events: 5000, LeaveProb: 0.55, MinAlive: 50, Rate: 0.5}
	const n = 200
	evs := churnFeed(spec, n, 9)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	up, last := n, 0.0
	for i, ev := range evs {
		if ev.At < last {
			t.Fatalf("event %d goes back in time", i)
		}
		last = ev.At
		leave := ev.Kind == dynamic.UpdateLeave
		if alive[ev.Node] != leave {
			t.Fatalf("event %d: %v of node %d, alive=%v", i, ev.Kind, ev.Node, alive[ev.Node])
		}
		alive[ev.Node] = !leave
		if leave {
			up--
		} else {
			up++
		}
		if up < spec.MinAlive {
			t.Fatalf("event %d: population %d below MinAlive %d", i, up, spec.MinAlive)
		}
	}
	if len(evs) < spec.Events/2 {
		t.Errorf("only %d events of %d", len(evs), spec.Events)
	}
	if !reflect.DeepEqual(evs, churnFeed(spec, n, 9)) {
		t.Error("feed differs for the same seed")
	}
}
