package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/workload"
)

func testSystem(t *testing.T) *pref.System {
	t.Helper()
	src := rng.New(5)
	g := gen.GNP(src, 12, 0.4)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reliableStack is -reliable at the default -rto.
var reliableStack = stack.Spec{Reliable: reliable.Config{RTO: 30}}

func TestLatencyHelper(t *testing.T) {
	if latency(0) == nil || latency(-1) == nil || latency(2) == nil {
		t.Fatal("latency returned nil")
	}
	if got := latency(0)(0, 1, nil); got != 1 {
		t.Fatalf("zero-jitter latency = %v, want unit", got)
	}
}

func TestFillHelper(t *testing.T) {
	s := testSystem(t)
	if f := fill(s, matching.NewDense(s.Graph())); f != 0 {
		t.Fatalf("empty fill = %v", f)
	}
}

func TestMaxInt(t *testing.T) {
	if maxInt(2, 5) != 5 || maxInt(5, 2) != 5 || maxInt(-1, -2) != -1 {
		t.Fatal("maxInt wrong")
	}
}

func TestRunAndReportAllRuntimes(t *testing.T) {
	s := testSystem(t)
	empty, err := pref.Build(gen.GNP(rng.New(1), 0, 0.5), pref.NewRandomMetric(rng.New(2)), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*pref.System{s, empty} {
		for _, rt := range []string{"event", "goroutine", "centralized"} {
			runAndReport(sys, reportOpts{seed: 1, runtime: rt, jitter: 2})
		}
		// udp rides real loopback sockets and needs the reliable layer.
		runAndReport(sys, reportOpts{seed: 1, runtime: "udp", stack: reliableStack,
			showMetrics: true, metricsFormat: "text"})
	}
}

func TestRunAndReportArtifacts(t *testing.T) {
	s := testSystem(t)
	dir := t.TempDir()
	dot := filepath.Join(dir, "overlay.dot")
	tl := filepath.Join(dir, "trace.log")
	runAndReport(s, reportOpts{seed: 2, runtime: "event", jitter: 1,
		verbose: true, dotPath: dot, spansPath: tl, spansFormat: "log"})
	dotData, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dotData, []byte("graph overlay {")) {
		t.Fatal("dot output malformed")
	}
	tlData, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tlData, []byte("PROP")) {
		t.Fatal("trace log missing PROP lines")
	}
}

// TestTraceLogOnGoroutineRuntime: the message-sequence log comes from
// the shared recorder, which the goroutine runtime feeds concurrently.
func TestTraceLogOnGoroutineRuntime(t *testing.T) {
	s := testSystem(t)
	tl := filepath.Join(t.TempDir(), "trace.log")
	runAndReport(s, reportOpts{seed: 4, runtime: "goroutine",
		spansPath: tl, spansFormat: "log"})
	data, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("PROP")) {
		t.Fatal("goroutine trace log missing PROP lines")
	}
}

func TestTraceNDJSONFormat(t *testing.T) {
	s := testSystem(t)
	tl := filepath.Join(t.TempDir(), "trace.ndjson")
	runAndReport(s, reportOpts{seed: 5, runtime: "event", jitter: 1,
		spansPath: tl, spansFormat: "ndjson"})
	data, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"seq":0,`)) {
		t.Fatalf("ndjson trace malformed: %.80s", data)
	}
}

func TestRunAndReportWithMetrics(t *testing.T) {
	s := testSystem(t)
	for _, rt := range []string{"event", "goroutine"} {
		for _, format := range []string{"text", "json", "prom"} {
			runAndReport(s, reportOpts{seed: 6, runtime: rt, jitter: 1,
				showMetrics: true, metricsFormat: format})
		}
	}
}

func TestRunWorkloadFile(t *testing.T) {
	s := testSystem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "wl.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pref.WriteJSON(f, s); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runWorkloadFile(path, reportOpts{seed: 3, runtime: "centralized"})
}

func TestRunAndReportWithFaults(t *testing.T) {
	s := testSystem(t)
	spec, err := faults.Parse("drop=0.1,dup=0.05,corrupt=0.03,delay=0.1,delayscale=4")
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []string{"event", "goroutine", "udp"} {
		runAndReport(s, reportOpts{seed: 4, runtime: rt, jitter: 1,
			faults: spec, faultsSeed: 99, stack: reliableStack})
	}
	// Delivery-preserving faults on bare LID, no transport.
	delayOnly, err := faults.Parse("delay=0.3,delayscale=8")
	if err != nil {
		t.Fatal(err)
	}
	runAndReport(s, reportOpts{seed: 4, runtime: "event", jitter: 1,
		faults: delayOnly, faultsSeed: 7})
}

func TestRunReplayFile(t *testing.T) {
	// Freeze a real violation (bare LID under duplication) and drive
	// the -replay path with it.
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: 9}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := faults.Spec{Dup: 0.3}
	rep := faults.Explore(faults.ExploreOptions{
		Spec: spec, BaseSeed: 1, Count: 60, Workers: 4, MaxViolations: 1,
	}, faults.LIDTrial(sys, faults.TrialOptions{Reliable: false}))
	if len(rep.Violations) == 0 {
		t.Fatal("no violation to freeze")
	}
	v := rep.Violations[0]
	rf := &faults.ReplayFile{
		Version:  faults.ReplayVersion,
		Workload: w,
		Seed:     v.Seed,
		Spec:     spec.String(),
		Err:      v.Err,
		Events:   v.Events,
	}
	path := filepath.Join(t.TempDir(), "violation.replay.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runReplayFile(path) // exits non-zero if the violation fails to reproduce
}

// TestCLIRejectsUnrunnableFlags drives the binary's main in a child
// process and checks that each flag combination exits 1 with an error
// naming the hook or the flag. The hooks a cluster cannot honour pass
// flag validation and fail the run, after the instance header is
// printed; centralized runs no LID, so its rejection is a flag error.
// The non-finite values once hung a run (NaN -rto, +Inf -jitter with
// probes) or reported NaN virtual time (NaN -jitter).
func TestCLIRejectsUnrunnableFlags(t *testing.T) {
	if args := os.Getenv("OVERLAYSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"overlaysim"}, strings.Fields(args)...)
		main()
		return
	}
	spans := filepath.Join(t.TempDir(), "s.ndjson")
	cases := []struct {
		name, args, want string
		header           bool // the run started: the instance header precedes the error
	}{
		{"probe on goroutine", "-runtime goroutine -probe-interval 2", "stability probes", true},
		{"greedy on udp", "-runtime udp -reliable -scheduler greedy", "admission", true},
		{"spans on udp", "-runtime udp -reliable -trace-spans " + spans, "span traces", true},
		{"probe on centralized", "-runtime centralized -probe-interval 2", "need a distributed runtime", false},
		{"greedy on centralized", "-runtime centralized -scheduler greedy", "need a distributed runtime", false},
		{"spans on centralized", "-runtime centralized -trace-spans " + spans, "need a distributed runtime", false},
		{"nan rto", "-reliable -rto NaN", "-rto", false},
		{"inf jitter with probes", "-jitter +Inf -probe-interval 1", "-jitter must be finite", false},
		{"nan jitter", "-jitter NaN", "-jitter must be finite", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestCLIRejectsUnrunnableFlags$")
			cmd.Env = append(os.Environ(), "OVERLAYSIM_TEST_ARGS=-n 12 "+c.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
				t.Fatalf("exit = %v, want status 1; stderr: %s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Fatalf("stderr %q does not name %q", stderr.String(), c.want)
			}
			if got := strings.HasPrefix(stdout.String(), "overlay: "); got != c.header {
				t.Fatalf("instance header printed = %v, want %v; stdout: %q", got, c.header, stdout.String())
			}
		})
	}
}
