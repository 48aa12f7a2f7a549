package main

import (
	"fmt"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
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
	det   detector.Config
	spec  faults.Spec
	churn dynamic.ChurnSpec
	sched lid.SchedulerSpec
}

// validateFlags parses the structured flags and rejects every
// unsupported flag interaction with an explicit error. The rule for
// runtime-specific hooks (-faults, -probe-interval, -trace-spans,
// -churn, -scheduler greedy, -detector, -reliable) is
// uniform: a runtime that cannot honor the hook fails loudly instead
// of silently ignoring it.
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

	if f.rto <= 0 {
		return cfg, fmt.Errorf("-rto must be positive, got %v (the retransmission timer would never fire)", f.rto)
	}
	if f.adaptiveRTO && !f.reliable {
		return cfg, fmt.Errorf("-adaptive-rto tunes the retransmission timer and needs -reliable")
	}
	det, err := detector.Parse(f.detector)
	if err != nil {
		return cfg, err
	}
	cfg.det = det

	spec, err := faults.Parse(f.faults)
	if err != nil {
		return cfg, err
	}
	cfg.spec = spec
	if !spec.PreservesDelivery() && !f.reliable {
		return cfg, fmt.Errorf("-faults %q loses messages; bare LID needs -reliable to survive it", f.faults)
	}
	if (f.reliable || det.Enabled() || !spec.IsZero()) && f.runtime == "centralized" {
		return cfg, fmt.Errorf("-reliable/-detector/-faults act on LID's messages and need a distributed runtime (event, goroutine or udp)")
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
	if f.probeInt < 0 {
		return cfg, fmt.Errorf("-probe-interval must be non-negative")
	}
	if f.probeInt > 0 && f.runtime != "event" {
		return cfg, fmt.Errorf("-probe-interval hooks the event run loop and needs -runtime event")
	}
	if f.traceSpans != "" && f.runtime != "event" && f.runtime != "goroutine" {
		return cfg, fmt.Errorf("-trace-spans records simulator deliveries and needs a simulated runtime (event or goroutine)")
	}

	sched, err := lid.ParseSchedulerSpec(f.scheduler)
	if err != nil {
		return cfg, err
	}
	cfg.sched = sched
	if sched.Greedy() {
		if f.runtime != "event" {
			return cfg, fmt.Errorf("-scheduler %s drives the event runner's admission queue and needs -runtime event", sched)
		}
		if !churnSpec.IsZero() {
			return cfg, fmt.Errorf("-scheduler configures the LID run; it has no effect under -churn")
		}
	}
	return cfg, nil
}
