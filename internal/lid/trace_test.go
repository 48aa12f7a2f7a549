package lid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// tracedRun runs LID on the named runtime ("event" or "goroutine") with
// a telemetry recorder attached.
func tracedRun(t *testing.T, runtime string) (*obs.Recorder, Result) {
	t.Helper()
	src := rng.New(3)
	g := gen.GNP(src, 15, 0.4)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	rec := obs.NewRecorder(g.NumNodes())
	var res Result
	if runtime == "goroutine" {
		res, err = RunGoroutinesOpts(s, tbl, GoOptions{Obs: rec})
	} else {
		res, err = RunEvent(s, tbl, simnet.Options{
			Seed:    1,
			Latency: simnet.ExponentialLatency(2),
			Obs:     rec,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

// TestWriteLog: the message-sequence log (-trace-spans-format log) has
// exactly one line per delivery on both runtimes — the recorder misses
// none, even when the goroutine runtime's node goroutines record
// concurrently — and on the event runtime the lines are in virtual-time
// order.
func TestWriteLog(t *testing.T) {
	for _, runtime := range []string{"event", "goroutine"} {
		t.Run(runtime, func(t *testing.T) {
			rec, res := tracedRun(t, runtime)
			var b strings.Builder
			if err := rec.WriteFormat(&b, "log"); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, "PROP") {
				t.Fatalf("log missing PROP lines:\n%.200s", out)
			}
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			if len(lines) != res.Stats.Deliveries {
				t.Fatalf("log has %d lines for %d deliveries", len(lines), res.Stats.Deliveries)
			}
			prev := 0.0
			for _, line := range lines {
				var at float64
				var from, to int
				var kind string
				if _, err := fmt.Sscanf(line, "%f %d -> %d %s", &at, &from, &to, &kind); err != nil {
					t.Fatalf("malformed log line %q: %v", line, err)
				}
				if kind != "PROP" && kind != "REJ" {
					t.Fatalf("log line %q has kind %q", line, kind)
				}
				if at < prev {
					t.Fatal("log out of time order")
				}
				prev = at
			}
		})
	}
}

// TestWriteNDJSON: the NDJSON stream carries every send and every
// delivery of a LID run, in record order.
func TestWriteNDJSON(t *testing.T) {
	rec, res := tracedRun(t, "event")
	var b bytes.Buffer
	if err := rec.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	sends, delivers := 0, 0
	for i, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var r struct {
			Seq  int    `json:"seq"`
			Type string `json:"type"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("record %d invalid: %v (%s)", i, err, line)
		}
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Type != "send" && r.Type != "deliver" {
			continue
		}
		if r.Kind != "PROP" && r.Kind != "REJ" {
			t.Fatalf("record %d has kind %q", i, r.Kind)
		}
		if r.Type == "send" {
			sends++
		} else {
			delivers++
		}
	}
	if sends != res.Stats.TotalSent() || delivers != res.Stats.Deliveries {
		t.Fatalf("ndjson has %d sends / %d deliveries, want %d / %d",
			sends, delivers, res.Stats.TotalSent(), res.Stats.Deliveries)
	}
}
