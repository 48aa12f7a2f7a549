package simnet

import (
	"testing"

	"overlaymatch/internal/metrics"
)

// lineHandler forwards one token down a line of nodes: node 0 sends
// to node 1 at Init and halts; every receiver forwards to its
// successor (if any) and halts. Exactly n-1 deliveries.
type lineHandler struct {
	n int
}

type token struct{}

func (token) Kind() string { return "TOKEN" }

func (h *lineHandler) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, token{})
		ctx.Halt()
	}
}

func (h *lineHandler) HandleMessage(ctx Context, from int, msg Message) {
	if ctx.ID() < h.n-1 {
		ctx.Send(ctx.ID()+1, token{})
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

// TestRunnerStatsMatchRegistry: the public Stats struct must be an
// exact view of the registry instruments.
func TestRunnerStatsMatchRegistry(t *testing.T) {
	n := 5
	r := NewRunner(n, Options{Seed: 1})
	st, err := r.Run(lineHandlers(n))
	if err != nil {
		t.Fatal(err)
	}
	reg := r.Metrics()
	snap := reg.Snapshot()
	byName := map[string]metrics.Sample{}
	for _, s := range snap.Samples {
		byName[s.Name] = s
	}
	if int(byName["simnet_deliveries_total"].Count) != st.Deliveries {
		t.Fatalf("deliveries: registry %d, stats %d",
			byName["simnet_deliveries_total"].Count, st.Deliveries)
	}
	var sent int64
	for _, v := range byName["simnet_sent_by_node"].Values {
		sent += v
	}
	if int(sent) != st.TotalSent() {
		t.Fatalf("sent: registry %d, stats %d", sent, st.TotalSent())
	}
	if got := reg.Family("simnet_sent_total", "", "kind").Value("TOKEN"); int(got) != st.SentByKind["TOKEN"] {
		t.Fatalf("kind counts: registry %d, stats %d", got, st.SentByKind["TOKEN"])
	}
	if byName["simnet_final_time"].Value != st.FinalTime {
		t.Fatalf("final time: registry %v, stats %v", byName["simnet_final_time"].Value, st.FinalTime)
	}
	if byName["simnet_queue_depth_max"].Value < 1 {
		t.Fatal("queue depth high-water mark never recorded")
	}
	if byName["simnet_send_latency"].Count != sent-int64(st.Dropped) {
		t.Fatalf("latency observations %d != undropped sends %d",
			byName["simnet_send_latency"].Count, sent-int64(st.Dropped))
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
