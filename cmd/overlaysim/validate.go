package main

import (
	"fmt"
	"math"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/stack"
)

// cliFlags is the raw cross-checkable flag surface of overlaysim —
// everything whose validity depends on another flag. Keeping the
// checks in one pure function makes the interaction matrix testable:
// the PR 10 audit found -churn silently ignoring -runtime (the engine
// ran regardless, most confusingly under -runtime udp, which opens
// real sockets for a run that never uses them), where every other
// simulator-only hook already errored explicitly.
type cliFlags struct {
	runtime      string
	jitter       float64
	rto          float64
	adaptiveRTO  bool
	reliable     bool
	detector     string
	faults       string
	traceSpans   string
	spansFormat  string
	metricsFmt   string
	probeInt     float64
	churn        string
	repairRounds int
	shedDepth    int
	scheduler    string
}

// runConfig is the parsed outcome of validateFlags.
type runConfig struct {
	stack stack.Spec
	spec  faults.Spec
	churn dynamic.ChurnSpec
	sched lid.SchedulerSpec
}

// validateFlags parses the structured flags and rejects every
// unsupported flag interaction with an explicit error. A hook that a
// distributed runtime cannot honour (-probe-interval, -scheduler
// greedy, -trace-spans on udp) is rejected by that runtime when the
// run starts (see simnet.Runtime), not here. The rules here cover what
// no runtime can run: any LID hook under -runtime centralized, which
// runs no LID, and the churn engine's contradictions.
func validateFlags(f cliFlags) (runConfig, error) {
	var cfg runConfig

	switch f.runtime {
	case "event", "goroutine", "centralized", "udp":
	default:
		return cfg, fmt.Errorf("unknown runtime %q", f.runtime)
	}
	switch f.spansFormat {
	case "ndjson", "chrome", "tree", "log":
	default:
		return cfg, fmt.Errorf("unknown -trace-spans-format %q", f.spansFormat)
	}
	switch f.metricsFmt {
	case "text", "json", "prom":
	default:
		return cfg, fmt.Errorf("unknown -metrics-format %q", f.metricsFmt)
	}

	if err := (reliable.Config{RTO: f.rto}).Validate(); err != nil {
		return cfg, fmt.Errorf("-rto: %v", err)
	}
	if math.IsNaN(f.jitter) || math.IsInf(f.jitter, 0) {
		return cfg, fmt.Errorf("-jitter must be finite, got %v", f.jitter)
	}
	if f.adaptiveRTO && !f.reliable {
		return cfg, fmt.Errorf("-adaptive-rto tunes the retransmission timer and needs -reliable")
	}
	det, err := detector.Parse(f.detector)
	if err != nil {
		return cfg, err
	}
	cfg.stack.Detector = det
	if f.reliable {
		cfg.stack.Reliable = reliable.Config{RTO: f.rto, Adaptive: f.adaptiveRTO}
	}

	spec, err := faults.Parse(f.faults)
	if err != nil {
		return cfg, err
	}
	cfg.spec = spec
	if !spec.PreservesDelivery() && !f.reliable {
		return cfg, fmt.Errorf("-faults %q loses messages; bare LID needs -reliable to survive it", f.faults)
	}
	sched, err := lid.ParseSchedulerSpec(f.scheduler)
	if err != nil {
		return cfg, err
	}
	cfg.sched = sched
	if f.runtime == "centralized" && (f.reliable || det.Enabled() || !spec.IsZero() ||
		f.probeInt != 0 || f.traceSpans != "" || sched.Greedy()) {
		return cfg, fmt.Errorf("-reliable/-detector/-faults/-probe-interval/-trace-spans/-scheduler act on LID's run and need a distributed runtime (event, goroutine or udp)")
	}
	// The churn checks come before the udp ones: -churn plus -runtime
	// udp must name the real contradiction (the engine uses no runtime
	// at all), not demand -reliable for a cluster that never starts.
	churnSpec, err := dynamic.ParseChurnSpec(f.churn)
	if err != nil {
		return cfg, err
	}
	cfg.churn = churnSpec
	if f.repairRounds < 0 || f.shedDepth < 0 {
		return cfg, fmt.Errorf("-repair-rounds and -shed-depth must be non-negative")
	}
	if churnSpec.IsZero() && (f.repairRounds > 0 || f.shedDepth > 0) {
		return cfg, fmt.Errorf("-repair-rounds and -shed-depth configure the churn engine; they need -churn")
	}
	if !churnSpec.IsZero() {
		if !spec.IsZero() || f.reliable || det.Enabled() {
			return cfg, fmt.Errorf("-churn runs the incremental repair engine, not the distributed sim; it is incompatible with -faults/-reliable/-detector")
		}
		// The engine replaces the distributed simulation entirely. It
		// used to ignore -runtime — silently on goroutine/centralized,
		// and under udp while still demanding -reliable, which churn
		// rejects. Now any non-default runtime fails explicitly.
		if f.runtime != "event" {
			return cfg, fmt.Errorf("-churn runs the incremental repair engine, not a distributed runtime; drop -runtime %s", f.runtime)
		}
		// The engine's report is the whole output: no LID run happens, so
		// there is nothing to probe or record.
		if f.probeInt > 0 || f.traceSpans != "" {
			return cfg, fmt.Errorf("-probe-interval/-trace-spans observe the distributed LID run; -churn runs none")
		}
	}

	// The loopback cluster is a real lossy wire: bare LID would wedge on
	// the first lost datagram.
	if f.runtime == "udp" && !f.reliable {
		return cfg, fmt.Errorf("-runtime udp rides a real datagram socket and needs -reliable")
	}
	if !(f.probeInt >= 0) || math.IsInf(f.probeInt, 1) {
		return cfg, fmt.Errorf("-probe-interval must be non-negative and finite, got %v", f.probeInt)
	}
	if sched.Greedy() && !churnSpec.IsZero() {
		return cfg, fmt.Errorf("-scheduler configures the LID run; it has no effect under -churn")
	}
	return cfg, nil
}
