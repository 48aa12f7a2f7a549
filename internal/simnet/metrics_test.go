package simnet

import (
	"reflect"
	"strings"
	"testing"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/rng"
)

// lineHandler forwards one token down a line of nodes: node 0 sends
// to node 1 at Init and halts; every receiver forwards to its
// successor (if any) and halts. Exactly n-1 deliveries.
type lineHandler struct {
	n int
}

func (h *lineHandler) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, Raw{})
		ctx.Halt()
	}
}

func (h *lineHandler) HandleMessage(ctx Context, from int, msg Message) {
	if ctx.ID() < h.n-1 {
		ctx.Send(ctx.ID()+1, Raw{})
	}
	ctx.Halt()
}

func lineHandlers(n int) []Handler {
	hs := make([]Handler, n)
	for i := range hs {
		hs[i] = &lineHandler{n: n}
	}
	return hs
}

// faultCycle is a deterministic lossy link policy: by send number it
// drops, duplicates, delays and corrupts, alone and in combination.
type faultCycle struct{ sends int }

func (p *faultCycle) Verdict(float64, int, int, Message) LinkVerdict {
	p.sends++
	k := p.sends
	if k%5 == 0 {
		return LinkVerdict{Drop: true}
	}
	v := LinkVerdict{Corrupt: k%7 == 0}
	if k%3 == 0 {
		v.Copies = 1 + k%2
	}
	if k%4 == 0 {
		v.ExtraDelay = float64(k % 11)
	}
	return v
}

// gossip has every node pass a hop counter to both ring neighbours
// until it reaches hops, ignoring corrupted copies. Every node halts at
// Init, so the run ends when the queue drains.
func gossip(n int, hops byte) []Handler {
	hs := make([]Handler, n)
	for i := range hs {
		hs[i] = handlerFunc{
			init: func(ctx Context) {
				ctx.Send((ctx.ID()+1)%n, Raw{0})
				ctx.Halt()
			},
			handle: func(ctx Context, _ int, msg Message) {
				raw, ok := msg.(Raw)
				if !ok || raw[0] >= hops {
					return
				}
				ctx.Send((ctx.ID()+1)%n, Raw{raw[0] + 1})
				ctx.Send((ctx.ID()+n-1)%n, Raw{raw[0] + 1, 0})
			},
		}
	}
	return hs
}

// stopLastTimer arms three stoppable timers per node and sends one
// message to its successor; the first timer to fire stops the node's
// last one, so one timer in three never fires.
func stopLastTimer(n int) []Handler {
	hs := make([]Handler, n)
	for i := range hs {
		toks := []stopToken{{1, new(Timer)}, {2, new(Timer)}, {3, new(Timer)}}
		hs[i] = handlerFunc{
			init: func(ctx Context) {
				for j, tok := range toks {
					SetTimerOn(ctx, float64(j+1+ctx.ID()%2), tok)
				}
				ctx.Send((ctx.ID()+1)%n, Raw{byte(ctx.ID())})
			},
			handle: func(ctx Context, _ int, msg Message) {
				if tok, ok := msg.(stopToken); ok && tok.n == 1 {
					toks[2].t.Stop()
				}
				ctx.Halt()
			},
		}
	}
	return hs
}

// TestRunnerStatsMatchRegistry: Stats, Runner.Metrics() and an
// Options.Metrics sink must report the same run exactly, on clean,
// lossy, timer-stopping and failed runs alike. The send-latency
// histogram is checked against a reference fed every latency the run
// drew, extra policy delay included.
func TestRunnerStatsMatchRegistry(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		opts    Options
		hs      func(n int) []Handler
		wantErr string
		// exercised reports whether the run did what the row is for.
		exercised func(st Stats, faults map[string]int64) bool
	}{
		{name: "clean", n: 5, hs: lineHandlers},
		{
			name: "lossy", n: 6,
			opts: Options{Latency: ExponentialLatency(2), Policy: &faultCycle{}},
			hs:   func(n int) []Handler { return gossip(n, 6) },
			exercised: func(st Stats, faults map[string]int64) bool {
				return st.Dropped > 0 && faults["dup"] > 0 && faults["delay"] > 0 && faults["corrupt"] > 0
			},
		},
		{
			name: "stopped timers", n: 4, opts: Options{Latency: ExponentialLatency(1)}, hs: stopLastTimer,
			exercised: func(st Stats, _ map[string]int64) bool {
				return st.TimersStopped > 0 && st.TimersFired > st.TimersStopped
			},
		},
		{
			name: "max deliveries", n: 6,
			opts:    Options{Latency: ExponentialLatency(2), MaxDeliveries: 40},
			hs:      func(n int) []Handler { return gossip(n, 20) },
			wantErr: "exceeded 40",
		},
		{
			name: "deadlock", n: 3,
			hs: func(int) []Handler {
				return []Handler{handlerFunc{init: func(ctx Context) { ctx.Send(1, Raw{}) }}, stubborn{}, stubborn{}}
			},
			wantErr: "never halted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := metrics.New()
			refLatency := ref.Histogram("simnet_send_latency", "", nil)
			latency := tc.opts.Latency
			if latency == nil {
				latency = UnitLatency
			}
			policy := tc.opts.Policy
			var extra float64
			if policy != nil {
				tc.opts.Policy = policyFunc(func(now float64, from, to int, msg Message) LinkVerdict {
					v := policy.Verdict(now, from, to, msg)
					extra = v.ExtraDelay
					return v
				})
			}
			tc.opts.Latency = func(from, to int, src *rng.Source) float64 {
				lat := latency(from, to, src)
				refLatency.Observe(lat + extra)
				return lat
			}
			tc.opts.Seed = 3
			tc.opts.Metrics = metrics.New()
			r := NewRunner(tc.n, tc.opts)
			st, err := r.Run(tc.hs(tc.n))
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			checkStatsMatchRegistry(t, r, st, ref)
			faults := r.Metrics().Family("simnet_fault_injections_total", "", "kind").Counts()
			if tc.exercised != nil && !tc.exercised(st, faults) {
				t.Fatalf("the run missed what the row is for: %+v, faults %v", st, faults)
			}
		})
	}
}

// policyFunc adapts a closure to LinkPolicy.
type policyFunc func(now float64, from, to int, msg Message) LinkVerdict

func (f policyFunc) Verdict(now float64, from, to int, msg Message) LinkVerdict {
	return f(now, from, to, msg)
}

// checkStatsMatchRegistry compares a finished run's Stats with its
// registry and its Options.Metrics sink, and its send-latency
// histogram with the one in ref.
func checkStatsMatchRegistry(t *testing.T, r *Runner, st Stats, ref *metrics.Registry) {
	t.Helper()
	byName := map[string]metrics.Sample{}
	snap := r.Metrics().Snapshot()
	for _, s := range snap.Samples {
		byName[s.Name] = s
	}
	counters := map[string]int{
		"simnet_deliveries_total":     st.Deliveries,
		"simnet_dropped_total":        st.Dropped,
		"simnet_timers_fired_total":   st.TimersFired,
		"simnet_timers_stopped_total": st.TimersStopped,
	}
	for name, want := range counters {
		if got := byName[name].Count; got != int64(want) {
			t.Errorf("%s: registry %d, stats %d", name, got, want)
		}
	}
	vectors := map[string][]int{
		"simnet_sent_by_node":     st.SentByNode,
		"simnet_received_by_node": st.ReceivedByNode,
	}
	for name, want := range vectors {
		got := byName[name].Values
		if len(got) != len(want) {
			t.Fatalf("%s: registry has %d nodes, stats %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != int64(want[i]) {
				t.Errorf("%s[%d]: registry %d, stats %d", name, i, got[i], want[i])
			}
		}
	}
	kinds := map[string]int{}
	for _, lv := range byName["simnet_sent_total"].LabelValues {
		kinds[lv.Value] = int(lv.Count)
	}
	if !reflect.DeepEqual(kinds, st.SentByKind) {
		t.Errorf("sent by kind: registry %v, stats %v", kinds, st.SentByKind)
	}
	msgs, bytes := r.SentTotals()
	var kindBytes int64
	for _, lv := range byName["simnet_sent_bytes_by_kind"].LabelValues {
		kindBytes += lv.Count
	}
	if msgs != int64(st.TotalSent()) || bytes != byName["simnet_sent_bytes_total"].Count || bytes != kindBytes {
		t.Errorf("SentTotals (%d, %d); stats sent %d, registry bytes %d, by kind %d",
			msgs, bytes, st.TotalSent(), byName["simnet_sent_bytes_total"].Count, kindBytes)
	}
	if got := byName["simnet_final_time"].Value; got != st.FinalTime {
		t.Errorf("final time: registry %v, stats %v", got, st.FinalTime)
	}
	if byName["simnet_queue_depth_max"].Value < 1 {
		t.Error("queue depth high-water mark never recorded")
	}
	lat := byName["simnet_send_latency"]
	want := ref.Snapshot().Samples[0]
	want.Help = lat.Help
	if lat.Count == 0 || !reflect.DeepEqual(lat, want) {
		t.Errorf("send latency: registry %+v, reference %+v", lat, want)
	}
	// The sink holds the same samples, less the per-run vectors that
	// Merge does not carry.
	var private []metrics.Sample
	for _, s := range snap.Samples {
		if s.Kind != metrics.KindVector {
			private = append(private, s)
		}
	}
	if sink := r.opts.Metrics.Snapshot().Samples; !reflect.DeepEqual(sink, private) {
		t.Errorf("sink and private registry differ:\nsink    %+v\nprivate %+v", sink, private)
	}
}

// TestRunnerMetricsSinkAggregates: two runs merging into one sink must
// add their counters.
func TestRunnerMetricsSinkAggregates(t *testing.T) {
	sink := metrics.New()
	var total int
	for _, seed := range []uint64{1, 2} {
		r := NewRunner(4, Options{Seed: seed, Metrics: sink})
		st, err := r.Run(lineHandlers(4))
		if err != nil {
			t.Fatal(err)
		}
		total += st.Deliveries
	}
	if got := sink.Counter("simnet_deliveries_total", "").Value(); int(got) != total {
		t.Fatalf("sink deliveries = %d, want %d", got, total)
	}
}
