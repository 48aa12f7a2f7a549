package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// record builds a small fixed log: node 0 opens a wave, sends to 1,
// 1 delivers, points, replies, 0 delivers and closes.
func record(r *Recorder) {
	id := r.OpenSpan(0, "lid.wave", "q=2", 0)
	lam := r.Send(0, 1, "PROP", 0)
	r.Deliver(1, 0, "PROP", 1, lam)
	r.Point(1, "lock", "edge 0-1", 1)
	lam2 := r.Send(1, 0, "REJ", 1)
	r.Deliver(0, 1, "REJ", 2, lam2)
	r.CloseSpan(0, id, "locked=1", 2)
}

func TestLamportClocks(t *testing.T) {
	r := NewRecorder(2)
	record(r)
	ev := r.Events()
	if len(ev) != 7 {
		t.Fatalf("got %d events, want 7", len(ev))
	}
	// open(0):lam1, send(0):lam2, deliver(1): max(0,2)+1=3,
	// point(1):4, send(1):5, deliver(0): max(2,5)+1=6, close(0):7.
	wantLam := []uint64{1, 2, 3, 4, 5, 6, 7}
	for i, e := range ev {
		if e.Lam != wantLam[i] {
			t.Fatalf("event %d (%s) lam=%d, want %d", i, e.Type, e.Lam, wantLam[i])
		}
		if e.Seq != i {
			t.Fatalf("event %d seq=%d", i, e.Seq)
		}
	}
	// The deliver must carry the matching send's stamp.
	if ev[2].SendLam != ev[1].Lam {
		t.Fatalf("deliver send_lam=%d, want %d", ev[2].SendLam, ev[1].Lam)
	}
	// Causality: every deliver strictly after its send.
	for _, e := range ev {
		if e.Type == EvDeliver && e.Lam <= e.SendLam {
			t.Fatalf("deliver lam=%d not after send lam=%d", e.Lam, e.SendLam)
		}
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if lam := r.Send(0, 1, "PROP", 0); lam != 0 {
		t.Fatalf("nil Send returned %d", lam)
	}
	r.Deliver(0, 1, "PROP", 0, 0)
	if id := r.OpenSpan(0, "x", "", 0); id != 0 {
		t.Fatalf("nil OpenSpan returned %d", id)
	}
	r.CloseSpan(0, 0, "", 0)
	r.Point(0, "x", "", 0)
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder not empty")
	}
	allocs := testing.AllocsPerRun(100, func() {
		lam := r.Send(0, 1, "PROP", 0)
		r.Deliver(1, 0, "PROP", 1, lam)
		r.CloseSpan(0, r.OpenSpan(0, "w", "", 0), "", 1)
		r.Point(0, "p", "", 1)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %v per run, want 0", allocs)
	}
}

func TestExportsDeterministic(t *testing.T) {
	render := func() (string, string, string, string) {
		r := NewRecorder(2)
		record(r)
		var nd, ch, tr, lg bytes.Buffer
		for _, out := range []struct {
			format string
			buf    *bytes.Buffer
		}{{"ndjson", &nd}, {"chrome", &ch}, {"tree", &tr}, {"log", &lg}} {
			if err := r.WriteFormat(out.buf, out.format); err != nil {
				t.Fatal(err)
			}
		}
		return nd.String(), ch.String(), tr.String(), lg.String()
	}
	nd1, ch1, tr1, lg1 := render()
	nd2, ch2, tr2, lg2 := render()
	if nd1 != nd2 || ch1 != ch2 || tr1 != tr2 || lg1 != lg2 {
		t.Fatal("exports differ across identical runs")
	}
	// The log lists deliveries only, one line each, as time, source,
	// destination and kind.
	if want := "   1.000     0 -> 1    PROP\n   2.000     1 -> 0    REJ\n"; lg1 != want {
		t.Fatalf("log =\n%q\nwant\n%q", lg1, want)
	}
	if got := strings.Count(nd1, "\n"); got != 7 {
		t.Fatalf("ndjson has %d lines, want 7", got)
	}
	for _, want := range []string{`"type":"send"`, `"type":"deliver"`, `"send_lam":2`, `"span":1`, `"kind":"lid.wave"`} {
		if !strings.Contains(nd1, want) {
			t.Fatalf("ndjson missing %q:\n%s", want, nd1)
		}
	}
	// Chrome trace must parse as JSON and pair B/E and s/f events.
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(ch1), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	phases := map[string]int{}
	for _, te := range doc.TraceEvents {
		phases[te["ph"].(string)]++
	}
	if phases["B"] != 1 || phases["E"] != 1 {
		t.Fatalf("span slices B=%d E=%d, want 1/1", phases["B"], phases["E"])
	}
	if phases["s"] != 2 || phases["f"] != 2 {
		t.Fatalf("flow events s=%d f=%d, want 2/2", phases["s"], phases["f"])
	}
	for _, want := range []string{"node 0", "node 1", "lid.wave(q=2)", "lam=1..7", "-> locked=1", "* lock(edge 0-1)"} {
		if !strings.Contains(tr1, want) {
			t.Fatalf("span tree missing %q:\n%s", want, tr1)
		}
	}
	// Unknown format rejected.
	if err := NewRecorder(1).WriteFormat(&bytes.Buffer{}, "xml"); err == nil {
		t.Fatal("unknown span format accepted")
	}
}

// TestRecorderConcurrentWriters: the goroutine runtime records from
// every node goroutine at once. No event may be lost, Seq must stay the
// record order, and every delivery must still merge its send's stamp.
func TestRecorderConcurrentWriters(t *testing.T) {
	const writers, per = 8, 500
	r := NewRecorder(2 * writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lam := r.Send(2*w, 2*w+1, "PROP", 0)
				r.Deliver(2*w+1, 2*w, "PROP", 0, lam)
			}
		}(w)
	}
	wg.Wait()
	ev := r.Events()
	if len(ev) != 2*writers*per {
		t.Fatalf("recorded %d events, want %d", len(ev), 2*writers*per)
	}
	for i, e := range ev {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Type == EvDeliver && e.Lam <= e.SendLam {
			t.Fatalf("deliver lam=%d not after send lam=%d", e.Lam, e.SendLam)
		}
	}
}

func TestProberRoundsToEps(t *testing.T) {
	// A decaying blocking-pair curve over 100 edges: 40, 8, 0.
	curve := []StabilitySample{
		{BlockingPairs: 40, UnmatchedNodes: 10, MatchedWeight: 5, Msgs: 100, Bytes: 800},
		{BlockingPairs: 8, UnmatchedNodes: 4, MatchedWeight: 8, Msgs: 200, Bytes: 1600},
		{BlockingPairs: 0, UnmatchedNodes: 0, MatchedWeight: 10, Msgs: 240, Bytes: 1920},
	}
	reg := metrics.New()
	i := 0
	p := NewProber(reg, 1, 100, 10, func(t float64) StabilitySample {
		s := curve[i]
		i++
		return s
	})
	for round, smp := range curve {
		p.Probe(float64(round), smp.Msgs, smp.Bytes)
	}
	if pts := p.Curve(); len(pts) != 3 || pts[0].V != 40 || pts[2].V != 0 {
		t.Fatalf("curve = %+v", pts)
	}
	if last := reg.Series("probe_bytes_sent", "").Last(); last.V != 1920 {
		t.Fatalf("final bytes = %v, want the 1920 handed to Probe", last.V)
	}
	if last := reg.Series("probe_matched_weight_frac", "").Last(); last.V != 1 {
		t.Fatalf("final weight fraction = %v, want 1", last.V)
	}
	got := p.RoundsToEps(nil)
	want := map[string]float64{"0.100": 1, "0.010": 2, "0.001": 2, "0.000": 2}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("rounds-to-eps[%s] = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	p.PublishSummary(reg, nil)
	if g := reg.Gauge(SummaryPrefix+"0.100", "").Value(); g != 1 {
		t.Fatalf("published gauge = %v, want 1", g)
	}

	// Never-converging curve reports -1.
	reg2 := metrics.New()
	p2 := NewProber(reg2, 1, 100, 0, func(float64) StabilitySample {
		return StabilitySample{BlockingPairs: 50}
	})
	p2.Probe(0, 0, 0)
	if got := p2.RoundsToEps([]float64{0}); got["0.000"] != -1 {
		t.Fatalf("unconverged rounds-to-eps = %v, want -1", got["0.000"])
	}

	// Nil prober is inert.
	var np *Prober
	np.Probe(0, 0, 0)
	if np.Interval() != 0 || np.Curve() != nil || np.RoundsToEps(nil) != nil {
		t.Fatal("nil prober not inert")
	}
	np.PublishSummary(reg, nil)
}

// TestStabilitySampler checks the sampler's definitions on a hand-built
// star: hub 0 (quota 2) ranks leaves 1, 2, 3, 4 (quota 1 each) in that
// order, and peer 5 is isolated with quota 0 (pref allows quota 0 only
// on isolated peers). The eq.-9 weights follow the hub's list:
//
//	{0,1} = 3/2  >  {0,2} = 11/8  >  {0,3} = 5/4  >  {0,4} = 9/8
func TestStabilitySampler(t *testing.T) {
	star := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}
	g, err := graph.FromEdges(6, star)
	if err != nil {
		t.Fatal(err)
	}
	lists := [][]graph.NodeID{{1, 2, 3, 4}, {0}, {0}, {0}, {0}, nil}
	s, err := pref.FromRanks(g, lists, []int{2, 1, 1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	held := map[[2]graph.NodeID]bool{}
	set := func(pairs ...[2]graph.NodeID) {
		clear(held)
		for _, p := range pairs {
			held[p] = true
		}
	}
	sample := StabilitySampler(s, satisfaction.NewTable(s), func(u, v graph.NodeID) bool {
		return held[[2]graph.NodeID{u, v}]
	})

	// 0 and 1 hold {0,1}; 0 alone holds {0,3}.
	set([2]graph.NodeID{0, 1}, [2]graph.NodeID{1, 0}, [2]graph.NodeID{0, 3})
	// Only {0,1} is matched: {0,3} adds no weight, and 3 holds nothing,
	// so 2, 3, 4 and the quota-0 peer 5 are unmatched. {0,3} still fills
	// the hub's quota and is its lightest connection, so the hub accepts
	// {0,2} (heavier) but not {0,3} or {0,4}. 2 has free quota and
	// accepts, so {0,2} is the one blocking pair.
	want := StabilitySample{BlockingPairs: 1, UnmatchedNodes: 4, MatchedWeight: 1.5}
	if got := sample(0); got != want {
		t.Fatalf("hub holds {0,3} alone: got %+v, want %+v", got, want)
	}

	// 0 and 2 hold {0,2}; 4 alone holds {0,4}. The hub has free quota
	// again, as do 1 and 3, so {0,1} and {0,3} block. {0,4} fills 4's
	// quota, and 4 does not accept its own lightest connection, so
	// {0,4} does not block; 4 is not unmatched. The first probe's
	// counts must be gone.
	set([2]graph.NodeID{0, 2}, [2]graph.NodeID{2, 0}, [2]graph.NodeID{4, 0})
	want = StabilitySample{BlockingPairs: 2, UnmatchedNodes: 3, MatchedWeight: 1.375}
	if got := sample(1); got != want {
		t.Fatalf("leaf 4 holds {0,4} alone: got %+v, want %+v", got, want)
	}
}
