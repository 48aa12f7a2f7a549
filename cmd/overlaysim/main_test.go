package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
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
	for _, rt := range []string{"event", "goroutine", "centralized"} {
		runAndReport(s, reportOpts{seed: 1, runtime: rt, jitter: 2})
	}
	// udp rides real loopback sockets and needs the reliable layer.
	runAndReport(s, reportOpts{seed: 1, runtime: "udp", reliable: true, rto: 30,
		showMetrics: true, metricsFormat: "text"})
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
	for _, rt := range []string{"event", "goroutine"} {
		runAndReport(s, reportOpts{seed: 4, runtime: rt, jitter: 1,
			faults: spec, faultsSeed: 99, reliable: true, rto: 30})
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
	w := faults.WorkloadSpec{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: 9}
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
