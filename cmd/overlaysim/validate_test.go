package main

import (
	"math"
	"strings"
	"testing"
)

// baseFlags returns a flag set that validates cleanly; cases mutate it.
func baseFlags() cliFlags {
	return cliFlags{
		runtime:     "event",
		rto:         30,
		detector:    "off",
		faults:      "off",
		spansFormat: "ndjson",
		metricsFmt:  "text",
		churn:       "off",
		scheduler:   "canonical",
	}
}

func TestValidateFlagsInteractionMatrix(t *testing.T) {
	churn := "events=50,leave=0.5,minalive=4,rate=2"
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string // substring; "" = must validate
	}{
		{"defaults", func(f *cliFlags) {}, ""},
		{"unknown runtime", func(f *cliFlags) { f.runtime = "quantum" }, "unknown runtime"},
		{"bad rto", func(f *cliFlags) { f.rto = 0 }, "-rto"},
		// Non-finite values once hung a run (NaN rto, +Inf jitter with
		// probes) or reported NaN virtual time (NaN jitter).
		{"nan rto", func(f *cliFlags) { f.rto = math.NaN(); f.reliable = true }, "-rto"},
		{"inf rto", func(f *cliFlags) { f.rto = math.Inf(1) }, "-rto"},
		{"nan jitter", func(f *cliFlags) { f.jitter = math.NaN() }, "-jitter must be finite"},
		{"inf jitter with probes", func(f *cliFlags) { f.jitter = math.Inf(1); f.probeInt = 1 }, "-jitter must be finite"},
		{"negative jitter", func(f *cliFlags) { f.jitter = -1 }, ""},
		{"nan probe interval", func(f *cliFlags) { f.probeInt = math.NaN() }, "-probe-interval"},
		{"inf probe interval", func(f *cliFlags) { f.probeInt = math.Inf(1) }, "-probe-interval"},
		{"adaptive rto without reliable", func(f *cliFlags) { f.adaptiveRTO = true }, "-adaptive-rto"},
		{"lossy faults without reliable", func(f *cliFlags) { f.faults = "drop=0.1" }, "needs -reliable"},
		{"lossy faults with reliable", func(f *cliFlags) { f.faults = "drop=0.1"; f.reliable = true }, ""},
		// Centralized runs no LID, so every LID hook is rejected there.
		{"centralized with reliable", func(f *cliFlags) { f.runtime = "centralized"; f.reliable = true }, "need a distributed runtime (event, goroutine or udp)"},
		{"centralized with detector", func(f *cliFlags) { f.runtime = "centralized"; f.detector = "on" }, "need a distributed runtime (event, goroutine or udp)"},
		{"centralized with faults", func(f *cliFlags) { f.runtime = "centralized"; f.faults = "dup=0.1" }, "need a distributed runtime (event, goroutine or udp)"},
		{"probe on centralized", func(f *cliFlags) { f.runtime = "centralized"; f.probeInt = 2 }, "need a distributed runtime (event, goroutine or udp)"},
		{"spans on centralized", func(f *cliFlags) { f.runtime = "centralized"; f.traceSpans = "s" }, "need a distributed runtime (event, goroutine or udp)"},
		{"greedy on centralized", func(f *cliFlags) { f.scheduler = "greedy"; f.runtime = "centralized" }, "need a distributed runtime (event, goroutine or udp)"},

		// The udp interaction matrix. Bare udp without -reliable is a
		// flag error; the hooks a cluster cannot honour (probes, greedy
		// admission, span traces on sockets) pass the flags and fail
		// the run in the runtime (TestRunRejectsHooksTheRuntimeCannotHonour).
		{"udp without reliable", func(f *cliFlags) { f.runtime = "udp" }, "needs -reliable"},
		{"udp ok", func(f *cliFlags) { f.runtime = "udp"; f.reliable = true }, ""},
		{"udp with faults", func(f *cliFlags) { f.runtime = "udp"; f.reliable = true; f.faults = "dup=0.1" }, ""},
		{"udp with log spans", func(f *cliFlags) {
			f.runtime = "udp"
			f.reliable = true
			f.traceSpans = "t.log"
			f.spansFormat = "log"
		}, ""},
		{"udp with trace spans", func(f *cliFlags) { f.runtime = "udp"; f.reliable = true; f.traceSpans = "s.ndjson" }, ""},
		{"udp with reliable and detector", func(f *cliFlags) { f.runtime = "udp"; f.reliable = true; f.detector = "on" }, ""},
		{"udp with probes", func(f *cliFlags) { f.runtime = "udp"; f.reliable = true; f.probeInt = 5 }, ""},
		{"udp with churn", func(f *cliFlags) { f.runtime = "udp"; f.churn = churn }, "drop -runtime udp"},
		{"udp with greedy scheduler", func(f *cliFlags) { f.runtime = "udp"; f.reliable = true; f.scheduler = "greedy" }, ""},

		{"probe on goroutine", func(f *cliFlags) { f.runtime = "goroutine"; f.probeInt = 2 }, ""},
		{"negative probe interval", func(f *cliFlags) { f.probeInt = -1 }, "non-negative"},
		{"log spans on goroutine", func(f *cliFlags) { f.runtime = "goroutine"; f.traceSpans = "t.log"; f.spansFormat = "log" }, ""},
		{"bad spans format", func(f *cliFlags) { f.spansFormat = "xml" }, "-trace-spans-format"},
		{"bad metrics format", func(f *cliFlags) { f.metricsFmt = "csv" }, "-metrics-format"},

		// The -churn audit: the engine replaces the distributed sim, so
		// a non-default runtime is a contradiction, not a no-op. Before
		// PR 10 goroutine/centralized were silently ignored.
		{"churn ok", func(f *cliFlags) { f.churn = churn }, ""},
		{"churn with goroutine runtime", func(f *cliFlags) { f.churn = churn; f.runtime = "goroutine" }, "drop -runtime goroutine"},
		{"churn with centralized runtime", func(f *cliFlags) { f.churn = churn; f.runtime = "centralized" }, "drop -runtime centralized"},
		{"churn with faults", func(f *cliFlags) { f.churn = churn; f.faults = "dup=0.1" }, "incompatible"},
		{"churn with reliable", func(f *cliFlags) { f.churn = churn; f.reliable = true }, "incompatible"},
		// The engine returns before any LID run, so a probe or span file
		// would silently never appear.
		{"churn with probes", func(f *cliFlags) { f.churn = churn; f.probeInt = 1 }, "-churn runs none"},
		{"churn with trace spans", func(f *cliFlags) { f.churn = churn; f.traceSpans = "s.ndjson" }, "-churn runs none"},
		{"churn knobs without churn", func(f *cliFlags) { f.repairRounds = 2 }, "need -churn"},
		{"negative shed depth", func(f *cliFlags) { f.shedDepth = -1 }, "non-negative"},

		{"greedy scheduler ok", func(f *cliFlags) { f.scheduler = "greedy" }, ""},
		{"greedy batch rejected", func(f *cliFlags) { f.scheduler = "greedy:batch=4" }, "batch"},
		{"greedy with reliable", func(f *cliFlags) { f.scheduler = "greedy"; f.reliable = true }, ""},
		{"bad scheduler", func(f *cliFlags) { f.scheduler = "eager" }, "scheduler"},
		{"greedy on goroutine", func(f *cliFlags) { f.scheduler = "greedy"; f.runtime = "goroutine" }, ""},
		{"greedy with churn", func(f *cliFlags) { f.scheduler = "greedy"; f.churn = churn }, "no effect under -churn"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := baseFlags()
			c.mutate(&f)
			_, err := validateFlags(f)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("expected valid, got: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateFlagsParsesScheduler(t *testing.T) {
	f := baseFlags()
	f.scheduler = "greedy"
	cfg, err := validateFlags(f)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.sched.Greedy() {
		t.Fatalf("scheduler spec not threaded through: %+v", cfg.sched)
	}
}
