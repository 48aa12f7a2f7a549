package simnet

import (
	"bytes"
	"testing"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
)

func TestRunnerObserverRecordsCausality(t *testing.T) {
	const n = 4
	rec := obs.NewRecorder(n)
	r := NewRunner(n, Options{Seed: 1, Obs: rec})
	if _, err := r.Run(starHandlers(n)); err != nil {
		t.Fatal(err)
	}
	ev := rec.Events()
	sends, delivers := 0, 0
	sendLam := map[uint64]bool{}
	for _, e := range ev {
		switch e.Type {
		case obs.EvSend:
			sends++
			sendLam[e.Lam] = true
		case obs.EvDeliver:
			delivers++
			if e.SendLam == 0 || !sendLam[e.SendLam] {
				t.Fatalf("deliver %+v has no matching send stamp", e)
			}
			if e.Lam <= e.SendLam {
				t.Fatalf("deliver lam=%d not causally after send lam=%d", e.Lam, e.SendLam)
			}
		}
	}
	if sends != n-1 || delivers != n-1 {
		t.Fatalf("recorded %d sends / %d delivers, want %d/%d", sends, delivers, n-1, n-1)
	}
	// Byte accounting: n-1 flood tokens, 16-byte frames.
	msgs, bytesSent := r.SentTotals()
	if msgs != n-1 || bytesSent != int64(16*(n-1)) {
		t.Fatalf("SentTotals = (%d, %d), want (%d, %d)", msgs, bytesSent, n-1, 16*(n-1))
	}
	// Context capability: a handler sees the recorder via ObserverOf.
	if got := ObserverOf(&runnerCtx{r: r}); got != rec {
		t.Fatal("ObserverOf(runnerCtx) did not return the recorder")
	}
}

func TestRunnerObserverDeterministic(t *testing.T) {
	render := func() string {
		rec := obs.NewRecorder(6)
		r := NewRunner(6, Options{Seed: 42, Latency: ExponentialLatency(2), Obs: rec})
		if _, err := r.Run(starHandlers(6)); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := rec.WriteNDJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("event-runtime telemetry differs across identical runs")
	}
}

// timeRecorder returns a prober, sampling every interval, whose
// sampler appends each probe time to *times.
// eventRunner builds the Runner that Event builds for one run with the
// given hooks.
func eventRunner(t testing.TB, n int, opts Options, probe *obs.Prober, admit Admitter, sink *metrics.Registry) *Runner {
	t.Helper()
	tr, err := Event(opts)(n, probe, admit, sink)
	if err != nil {
		t.Fatal(err)
	}
	return tr.(*Runner)
}

func timeRecorder(interval float64, times *[]float64) *obs.Prober {
	return obs.NewProber(metrics.New(), interval, 0, 0, func(tm float64) obs.StabilitySample {
		*times = append(*times, tm)
		return obs.StabilitySample{}
	})
}

// chainHandlers builds the chain protocol for n nodes.
func chainHandlers(n int) []Handler {
	hs := make([]Handler, n)
	for i := range hs {
		hs[i] = chainHandler{n: n}
	}
	return hs
}

func TestRunnerProbeSchedule(t *testing.T) {
	// chainHandler (simnet_test.go) delivers one hop per unit-latency
	// round: deliveries at t = 1, 2, 3, 4 for n = 5.
	const n = 5
	var times []float64
	hs := chainHandlers(n)
	r := eventRunner(t, n, Options{Seed: 1}, timeRecorder(1, &times), nil, nil)
	if _, err := r.Run(hs); err != nil {
		t.Fatal(err)
	}
	// Probe k fires after all events strictly before time k, plus one
	// final end-state sample: 0, 1, 2, 3 in-loop, then 4 at drain.
	want := []float64{0, 1, 2, 3, 4}
	if len(times) != len(want) {
		t.Fatalf("probe times %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("probe times %v, want %v", times, want)
		}
	}
}

func TestRunnerProbeTickAligned(t *testing.T) {
	// Regression: probe times were accumulated by repeated addition of
	// the interval, so a non-dyadic interval drifted off the tick grid
	// (ten 0.1-steps sum to 0.9999999999999999 < 1.0, squeezing an
	// eleventh sample into the first unit-latency round). Probe times
	// must be exact multiples of the interval — float64(k) * interval —
	// with exactly one sample per tick.
	const n = 5
	for _, interval := range []float64{0.1, 0.25, 0.2} {
		var times []float64
		hs := chainHandlers(n)
		r := eventRunner(t, n, Options{Seed: 1}, timeRecorder(interval, &times), nil, nil)
		if _, err := r.Run(hs); err != nil {
			t.Fatal(err)
		}
		// chainHandler's last delivery is at t = 4: ticks 0..ceil(4/iv)
		// in-loop coverage plus the final drain sample.
		for k, tm := range times {
			if want := float64(k) * interval; tm != want {
				t.Fatalf("interval %v: probe %d at t=%v, want exact tick %v (times %v)",
					interval, k, tm, want, times)
			}
		}
		wantLen := int(4/interval) + 1
		if float64(wantLen-1)*interval < 4 {
			wantLen++
		}
		if len(times) != wantLen {
			t.Fatalf("interval %v: %d probes %v, want %d (one per tick, no drift duplicates)",
				interval, len(times), times, wantLen)
		}
	}
}

// TestRunnerProberTotals: at every probe the Runner hands the prober
// exactly the send totals SentTotals reports at that moment.
func TestRunnerProberTotals(t *testing.T) {
	const n = 5
	reg := metrics.New()
	var r *Runner
	var want [][2]int64
	prober := obs.NewProber(reg, 1, 0, 0, func(float64) obs.StabilitySample {
		m, b := r.SentTotals()
		want = append(want, [2]int64{m, b})
		return obs.StabilitySample{}
	})
	r = eventRunner(t, n, Options{Seed: 1}, prober, nil, nil)
	if _, err := r.Run(chainHandlers(n)); err != nil {
		t.Fatal(err)
	}
	msgPts := reg.Series("probe_msgs_sent", "").Points()
	bytePts := reg.Series("probe_bytes_sent", "").Points()
	if len(want) != 5 || len(msgPts) != len(want) || len(bytePts) != len(want) {
		t.Fatalf("%d samples, %d msgs points, %d bytes points, want 5 each", len(want), len(msgPts), len(bytePts))
	}
	for i, w := range want {
		if msgPts[i].V != float64(w[0]) || bytePts[i].V != float64(w[1]) {
			t.Fatalf("probe %d recorded (%v, %v), SentTotals said %v", i, msgPts[i].V, bytePts[i].V, w)
		}
	}
	// One 8-byte Raw frame per hop: after round k the chain has sent
	// k+1 frames, and the drain sample sees the final four.
	for i, m := range []int64{1, 2, 3, 4, 4} {
		if want[i] != [2]int64{m, 8 * m} {
			t.Fatalf("probe totals %v, want msgs 1 2 3 4 4 at 8 bytes each", want)
		}
	}
}

// BenchmarkRunnerHotPathNoObs enforces the zero-cost contract: with
// telemetry and probes off, the per-delivery path must not allocate.
func BenchmarkRunnerHotPathNoObs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunner(6, Options{Seed: uint64(i + 1)})
		if _, err := r.Run(starHandlers(6)); err != nil {
			b.Fatal(err)
		}
	}
}

// budgetPingpong bounces a PRE-ALLOCATED message between nodes 0 and 1 so
// that neither the handler nor the runner should allocate per
// delivery; each side sends until its own budget runs out (Quiesce
// mode, no Halt bookkeeping).
type budgetPingpong struct {
	budget int
	msg    Message
}

func (h *budgetPingpong) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, h.msg)
	}
}

func (h *budgetPingpong) HandleMessage(ctx Context, from int, msg Message) {
	if h.budget--; h.budget > 0 {
		ctx.Send(from, h.msg)
	}
}

func TestRunnerHotPathAllocBudgetNoObs(t *testing.T) {
	// The zero-cost contract: with telemetry and probes off, the
	// per-delivery path allocates nothing. Per-run setup (instruments,
	// registry, queue) does allocate, so compare total allocations at
	// two message volumes — the difference is pure per-delivery cost.
	// floodMsg is registered, so every send is also encoded to be
	// billed: the encode must not allocate either.
	measure := func(budget int) float64 {
		return testing.AllocsPerRun(20, func() {
			hs := []Handler{
				&budgetPingpong{budget: budget, msg: floodMsg},
				&budgetPingpong{budget: budget, msg: floodMsg},
			}
			r := NewRunner(2, Options{Seed: 7, Quiesce: true})
			if _, err := r.Run(hs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(20), measure(320)
	// ~600 extra deliveries between the two volumes; allow a little
	// slack for map growth inside the kind family.
	if large-small > 8 {
		t.Fatalf("per-delivery path allocates: %v allocs at 20 msgs vs %v at 320", small, large)
	}
}
