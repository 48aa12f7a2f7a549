package lid

import (
	"bytes"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

func probeWorkload(t *testing.T, seed uint64, n int, p float64) (*pref.System, *satisfaction.Table) {
	t.Helper()
	src := rng.New(seed)
	g := gen.GNP(src, n, p)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(3))
	if err != nil {
		t.Fatal(err)
	}
	return s, satisfaction.NewTable(s)
}

// TestProbedRunMonotoneConvergence checks the stability trajectory of
// a probed LID run: blocking pairs non-increasing down to exactly 0,
// matched-weight fraction non-decreasing up to exactly 1 (LID ends at
// the LIC matching), traffic counters non-decreasing — and the run
// outcome bit-identical to an unprobed run.
func TestProbedRunMonotoneConvergence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		s, tbl := probeWorkload(t, seed, 40, 0.2)
		opts := simnet.Options{Seed: seed, Latency: simnet.ExponentialLatency(2)}

		plain, err := RunEvent(s, tbl, opts)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		probed, err := Run(s, tbl, simnet.Event(opts), RunOptions{ProbeInterval: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		prober := probed.Prober
		if !plain.Matching.Equal(probed.Matching) {
			t.Fatalf("seed %d: probing changed the matching", seed)
		}

		curve := prober.Curve()
		if len(curve) < 2 {
			t.Fatalf("seed %d: curve has %d points", seed, len(curve))
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].V > curve[i-1].V {
				t.Fatalf("seed %d: blocking pairs increased %v -> %v at t=%v",
					seed, curve[i-1].V, curve[i].V, curve[i].T)
			}
		}
		if final := curve[len(curve)-1].V; final != 0 {
			t.Fatalf("seed %d: final blocking pairs = %v, want 0", seed, final)
		}

		frac := reg.Series("probe_matched_weight_frac", "").Points()
		for i := 1; i < len(frac); i++ {
			if frac[i].V < frac[i-1].V {
				t.Fatalf("seed %d: weight fraction decreased at t=%v", seed, frac[i].T)
			}
		}
		if final := frac[len(frac)-1].V; final != 1 {
			t.Fatalf("seed %d: final weight fraction = %v, want 1 (LID == LIC)", seed, final)
		}

		msgs := reg.Series("probe_msgs_sent", "").Points()
		bytesSeries := reg.Series("probe_bytes_sent", "").Points()
		for i := 1; i < len(msgs); i++ {
			if msgs[i].V < msgs[i-1].V || bytesSeries[i].V < bytesSeries[i-1].V {
				t.Fatalf("seed %d: traffic counters decreased", seed)
			}
		}
		// Every message is billed as its encoded frame: the curves must
		// end at exactly the run's messages and their frames' total size.
		prop, err := simnet.EncodeFrame(propMsg)
		if err != nil {
			t.Fatal(err)
		}
		rej, err := simnet.EncodeFrame(rejMsg)
		if err != nil {
			t.Fatal(err)
		}
		wantM := probed.PropMessages + probed.RejMessages
		wantB := len(prop)*probed.PropMessages + len(rej)*probed.RejMessages
		lastM, lastB := msgs[len(msgs)-1].V, bytesSeries[len(bytesSeries)-1].V
		if lastM != float64(wantM) || lastB != float64(wantB) {
			t.Fatalf("seed %d: curves end at %v msgs / %v bytes, want %d / %d", seed, lastM, lastB, wantM, wantB)
		}

		// Rounds-to-eps: reaching eps=0 can't precede eps=0.1, and the
		// published gauges must match the computed summary.
		summary := prober.RoundsToEps(nil)
		if summary["0.000"] < summary["0.100"] {
			t.Fatalf("seed %d: eps ladder inverted: %v", seed, summary)
		}
		for k, v := range summary {
			if g := reg.Gauge(obs.SummaryPrefix+k, "").Value(); g != v {
				t.Fatalf("seed %d: published gauge %s = %v, want %v", seed, k, g, v)
			}
		}
	}
}

// TestWaveSpansBalanced: with a recorder attached, every node opens
// exactly one lid.wave span and closes it at local termination, and
// the NDJSON emission is byte-identical across repeated runs.
func TestWaveSpansBalanced(t *testing.T) {
	s, tbl := probeWorkload(t, 11, 30, 0.25)
	n := s.Graph().NumNodes()
	render := func() ([]obs.Event, string) {
		rec := obs.NewRecorder(n)
		res, err := RunEvent(s, tbl, simnet.Options{Seed: 11, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if lic := matching.LIC(s, tbl); !lic.Equal(res.Matching) {
			t.Fatal("recorded run diverged from LIC")
		}
		var b bytes.Buffer
		if err := rec.WriteNDJSON(&b); err != nil {
			t.Fatal(err)
		}
		return rec.Events(), b.String()
	}
	events, nd1 := render()
	opens, closes, locks := 0, 0, 0
	openPer := make(map[int]int)
	for _, e := range events {
		switch {
		case e.Type == obs.EvOpen && e.Kind == "lid.wave":
			opens++
			openPer[e.Node]++
		case e.Type == obs.EvClose:
			closes++
		case e.Type == obs.EvPoint && e.Kind == "lid.lock":
			locks++
		}
	}
	if opens != n || closes != n {
		t.Fatalf("wave spans open/close = %d/%d, want %d/%d", opens, closes, n, n)
	}
	for node, c := range openPer {
		if c != 1 {
			t.Fatalf("node %d opened %d waves", node, c)
		}
	}
	if locks == 0 {
		t.Fatal("no lid.lock points recorded")
	}
	if _, nd2 := render(); nd1 != nd2 {
		t.Fatal("span emission differs across identical runs")
	}
}
