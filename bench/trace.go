package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// span is one stage of a traced run, recorded by the benchmark around
// its calls into the program: workload → sample → stage (build, table,
// nodes, run, assemble, verify). Spans live in memory until the run
// ends.
type span struct {
	name       string
	start, end int64 // nanoseconds since origin
	parent     int   // index of the parent span, -1 for the root
	sample     int   // sample index, -1 outside samples
	args       map[string]float64
}

// tracer records stage spans on the benchmark's own goroutine and keeps
// the per-call spans of one sample. A nil *tracer records nothing, which
// is how the untraced pass runs.
type tracer struct {
	spans []span
	calls *callLogs
}

func (t *tracer) begin(name string, parent, sample int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: nowNs(), parent: parent, sample: sample})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = nowNs()
	}
}

// arg attaches a value to a span, such as the per-node accumulator
// totals of a run stage.
func (t *tracer) arg(id int, key string, v float64) {
	if t == nil {
		return
	}
	sp := &t.spans[id]
	if sp.args == nil {
		sp.args = make(map[string]float64)
	}
	sp.args[key] = v
}

// chromeEvent is one record of the Chrome trace-event format, which
// Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// writeChrome writes every span as a complete ("X") event. Stage spans
// are on thread 0 and carry their self time — duration minus the time
// their child stages cover — as args.self_us; per-call spans are on
// thread node+1 (the admitter's on thread 0), where nesting shows each
// layer inside the one that called it.
func (t *tracer) writeChrome(path string) error {
	childNs := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			childNs[sp.parent] += sp.end - sp.start
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var events []chromeEvent
	for i, sp := range t.spans {
		args := map[string]float64{"self_us": us(sp.end - sp.start - childNs[i])}
		if sp.sample >= 0 {
			args["sample"] = float64(sp.sample)
		}
		for k, v := range sp.args {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: sp.name, Cat: "stage", Ph: "X",
			Ts: us(sp.start), Dur: us(sp.end - sp.start), Pid: 1, Tid: 0, Args: args})
	}
	if t.calls != nil {
		add := func(tid int, l *callLog) {
			for _, c := range l.spans {
				events = append(events, chromeEvent{Name: c.name, Cat: "call", Ph: "X",
					Ts: us(c.start), Dur: us(c.end - c.start), Pid: 1, Tid: tid})
			}
		}
		add(0, t.calls.runtime)
		for i, l := range t.calls.nodes {
			add(i+1, l)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
