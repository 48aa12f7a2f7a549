package lid

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden span-trace file")

// goldenSpanTrace runs the canonical telemetry workload with the given
// worker count and returns the NDJSON span trace. Everything is seeded:
// the bytes must be a pure function of (workload, seed) and of nothing
// else.
func goldenSpanTrace(t *testing.T, workers int) []byte {
	t.Helper()
	src := rng.New(42)
	g := gen.GNP(src, 30, 0.2)
	sys, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTableParallel(sys, workers)
	rec := obs.NewRecorder(g.NumNodes())
	if _, err := RunEvent(sys, tbl, simnet.Options{
		Seed:    7,
		Latency: simnet.ExponentialLatency(2),
		Obs:     rec,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsNDJSONGolden pins the causal span trace of a seeded event-
// runtime LID run to a committed golden file, at several worker counts:
// -workers only parallelizes the preference-table build, so the
// telemetry bytes must be identical at every count — a worker-dependent
// diff means scheduling state leaked into the telemetry plane, and any
// diff at all is a (possibly intentional) trace-format or protocol
// change. Regenerate with:
//
//	go test ./internal/lid -run TestObsNDJSONGolden -args -update
func TestObsNDJSONGolden(t *testing.T) {
	golden := filepath.Join("testdata", "obs_spans_golden.ndjson")
	base := goldenSpanTrace(t, 1)
	for _, workers := range []int{2, 8} {
		if got := goldenSpanTrace(t, workers); !bytes.Equal(got, base) {
			t.Fatalf("span trace with %d workers differs from 1 worker (%d vs %d bytes) — telemetry must be schedule-free",
				workers, len(got), len(base))
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, base, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(base))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -args -update)", err)
	}
	if !bytes.Equal(base, want) {
		// Find the first differing line for a readable failure.
		gotLines, wantLines := bytes.Split(base, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("span trace drifted from golden at line %d:\n got: %s\nwant: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("span trace drifted from golden: %d lines vs %d", len(gotLines), len(wantLines))
	}
}
