package lid

import (
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

func TestSchedulerSpecParse(t *testing.T) {
	good := []struct {
		in   string
		want SchedulerSpec
	}{
		{"", SchedulerSpec{Kind: SchedCanonical}},
		{"canonical", SchedulerSpec{Kind: SchedCanonical}},
		{"greedy", SchedulerSpec{Kind: SchedGreedy}},
		{"greedy:batch=1", SchedulerSpec{Kind: SchedGreedy, Batch: 1}},
		{"greedy:batch=64", SchedulerSpec{Kind: SchedGreedy, Batch: 64}},
	}
	for _, c := range good {
		got, err := ParseSchedulerSpec(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		back, err := ParseSchedulerSpec(got.String())
		if err != nil || back != got {
			t.Fatalf("round trip %q -> %q -> %+v (%v)", c.in, got.String(), back, err)
		}
	}
	bad := []string{"canonical:batch=2", "greedy:batch=0", "greedy:batch=-1",
		"greedy:batch=", "greedy:cap=3", "greedy:", "eager", "greedy:batch=1x", "GREEDY"}
	for _, in := range bad {
		if _, err := ParseSchedulerSpec(in); err == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

func FuzzSchedulerSpecParse(f *testing.F) {
	for _, seed := range []string{"", "canonical", "greedy", "greedy:batch=4",
		"greedy:batch=999999", "greedy:batch=08", "canonical:x", "greedy:batch"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSchedulerSpec(in)
		if err != nil {
			return
		}
		if sp.Kind != SchedCanonical && sp.Kind != SchedGreedy {
			t.Fatalf("Parse(%q) accepted unknown kind %q", in, sp.Kind)
		}
		if sp.Batch < 0 || (sp.Batch > 0 && !sp.Greedy()) {
			t.Fatalf("Parse(%q) produced inconsistent spec %+v", in, sp)
		}
		back, err := ParseSchedulerSpec(sp.String())
		if err != nil {
			t.Fatalf("String() of accepted spec %+v does not reparse: %v", sp, err)
		}
		if back != sp {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", in, sp, sp.String(), back)
		}
	})
}

// schedulerCorpus mirrors the dense-core equivalence corpus (internal/
// matching's equivSystems): three generator families × quotas 1..4 × a
// seed spread. Short mode trims the seed axis.
func schedulerCorpus(tb testing.TB) []*pref.System {
	tb.Helper()
	seeds := uint64(51)
	if testing.Short() {
		seeds = 12
	}
	var out []*pref.System
	build := func(g *graph.Graph, src *rng.Source, b int) {
		s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(b))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, s)
	}
	for b := 1; b <= 4; b++ {
		for seed := uint64(0); seed < seeds; seed++ {
			src := rng.New(seed*31 + uint64(b))
			n := 8 + int(seed%12)*2
			switch seed % 3 {
			case 0:
				build(gen.GNP(src, n, 0.4), src, b)
			case 1:
				g, _ := gen.Geometric(src, n, 0.5)
				build(g, src, b)
			default:
				build(gen.BarabasiAlbert(src, n, 2), src, b)
			}
		}
	}
	return out
}

// TestGreedySchedulerEquivalence is the proof that greedy admission is
// scheduling, not approximation: over the full corpus and at every
// worker count, greedy ≡ canonical ≡ LIC edge-for-edge. The tables at
// workers 2 and 8 are rebuilt per run — the scheduler consumes the
// table's order keys, so a table whose parallel build diverged would
// surface here as a matching difference.
func TestGreedySchedulerEquivalence(t *testing.T) {
	workerGrid := []int{1, 2, 8}
	for i, s := range schedulerCorpus(t) {
		tbl := satisfaction.NewTable(s)
		want := matching.LIC(s, tbl)
		canonical, err := RunEvent(s, tbl, simnet.Options{Seed: uint64(i)})
		if err != nil {
			t.Fatalf("system %d canonical: %v", i, err)
		}
		if !canonical.Matching.Equal(want) {
			t.Fatalf("system %d: canonical LID != LIC", i)
		}
		for _, workers := range workerGrid {
			wtbl := satisfaction.NewTableParallel(s, workers)
			greedy, err := Run(s, wtbl, simnet.Event(simnet.Options{Seed: uint64(i)}), RunOptions{Scheduler: SchedulerSpec{Kind: SchedGreedy}})
			if err != nil {
				t.Fatalf("system %d greedy workers=%d: %v", i, workers, err)
			}
			if !greedy.Matching.Equal(want) {
				t.Fatalf("system %d workers=%d: greedy LID != LIC", i, workers)
			}
		}
	}
}

// TestGreedyBatchCapEquivalence: the batch=N cap changes pacing only —
// the outcome stays the LIC matching for tight and loose caps alike.
func TestGreedyBatchCapEquivalence(t *testing.T) {
	systems := schedulerCorpus(t)
	for _, batch := range []int{1, 3} {
		for i := 0; i < len(systems); i += 7 {
			s := systems[i]
			tbl := satisfaction.NewTable(s)
			want := matching.LIC(s, tbl)
			res, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: uint64(i)}), RunOptions{Scheduler: SchedulerSpec{Kind: SchedGreedy, Batch: batch}})
			if err != nil {
				t.Fatalf("system %d batch=%d: %v", i, batch, err)
			}
			if !res.Matching.Equal(want) {
				t.Fatalf("system %d batch=%d: greedy LID != LIC", i, batch)
			}
		}
	}
}

// verifyingAdmitter checks the early-termination certificate after
// every admission round of a real run.
type verifyingAdmitter struct {
	inner *GreedyAdmitter
	errs  []error
}

func (a *verifyingAdmitter) NextBatch() []int {
	batch := a.inner.NextBatch()
	if err := a.inner.VerifyDeferred(); err != nil {
		a.errs = append(a.errs, err)
	}
	return batch
}

// TestGreedyEarlyTerminationCertificate is the property test of the
// satellite: early termination never fires while a displacing proposal
// is still possible. After every admission round that stopped early,
// VerifyDeferred re-derives the certificate from live protocol state —
// every deferred node's frontier is at most as heavy as the stop key,
// and the stop node's partner strictly prefers heavier still-live mass
// — under both unit and heavy-tailed latency (the admission points
// interleave differently with message arrival in each).
func TestGreedyEarlyTerminationCertificate(t *testing.T) {
	systems := schedulerCorpus(t)
	latencies := []struct {
		name string
		lat  simnet.LatencyFunc
	}{
		{"unit", nil},
		{"exp", simnet.ExponentialLatency(3)},
	}
	stops := 0
	for i := 0; i < len(systems); i += 3 {
		s := systems[i]
		tbl := satisfaction.NewTable(s)
		want := matching.LIC(s, tbl)
		for _, lc := range latencies {
			nodes := NewNodes(s, tbl)
			adm := &verifyingAdmitter{inner: NewGreedyAdmitter(s, tbl, nodes, SchedulerSpec{Kind: SchedGreedy})}
			runner := simnet.NewRunner(s.Graph().NumNodes(), simnet.Options{
				Seed:     uint64(i),
				Latency:  lc.lat,
				Admitter: adm,
			})
			if _, err := runner.Run(Handlers(nodes)); err != nil {
				t.Fatalf("system %d %s: %v", i, lc.name, err)
			}
			for _, err := range adm.errs {
				t.Errorf("system %d %s: %v", i, lc.name, err)
			}
			m, err := BuildMatching(nodes)
			if err != nil {
				t.Fatalf("system %d %s: %v", i, lc.name, err)
			}
			if !m.Equal(want) {
				t.Fatalf("system %d %s: greedy LID != LIC", i, lc.name)
			}
			stops += adm.inner.Stats().EarlyStops
		}
	}
	if stops == 0 {
		t.Fatal("the corpus never exercised an early termination — the property test is vacuous")
	}
}

// TestGreedyBitIdenticalAcrossWorkers: the full instrument registry of
// a greedy run (message counters, probe series, admission-batch
// counter) must be byte-identical for any worker count; workers only
// parallelize the deterministic table build.
func TestGreedyBitIdenticalAcrossWorkers(t *testing.T) {
	for i, cfg := range []struct {
		n    int
		b    int
		seed uint64
	}{
		{40, 2, 3},
		{60, 3, 9},
	} {
		src := rng.New(cfg.seed)
		g := gen.GNP(src, cfg.n, 0.3)
		s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(cfg.b))
		if err != nil {
			t.Fatal(err)
		}
		var baseline string
		for _, workers := range []int{1, 2, 8} {
			tbl := satisfaction.NewTableParallel(s, workers)
			sink := metrics.New()
			_, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: cfg.seed}), RunOptions{Scheduler: SchedulerSpec{Kind: SchedGreedy}, ProbeInterval: 1, Metrics: sink})
			if err != nil {
				t.Fatalf("cfg %d workers=%d: %v", i, workers, err)
			}
			raw, err := sink.Snapshot().MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			snap := string(raw)
			if workers == 1 {
				baseline = snap
			} else if snap != baseline {
				t.Fatalf("cfg %d: greedy run with workers=%d is not bit-identical to workers=1", i, workers)
			}
		}
	}
}

// TestGreedySavesMessages pins the point of the scheduler: across the
// corpus, greedy admission must send strictly fewer messages than
// canonical LID in aggregate (E20 gates the per-family ≥20% figure;
// this is the package-local smoke version).
func TestGreedySavesMessages(t *testing.T) {
	systems := schedulerCorpus(t)
	var canonicalMsgs, greedyMsgs int64
	for i := 0; i < len(systems); i += 5 {
		s := systems[i]
		tbl := satisfaction.NewTable(s)
		c, err := RunEvent(s, tbl, simnet.Options{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: uint64(i)}), RunOptions{Scheduler: SchedulerSpec{Kind: SchedGreedy}})
		if err != nil {
			t.Fatal(err)
		}
		canonicalMsgs += int64(c.Stats.TotalSent())
		greedyMsgs += int64(g.Stats.TotalSent())
	}
	if greedyMsgs >= canonicalMsgs {
		t.Fatalf("greedy sent %d messages, canonical %d — the scheduler must save traffic", greedyMsgs, canonicalMsgs)
	}
	t.Logf("aggregate messages: canonical=%d greedy=%d (%.1f%% saved)",
		canonicalMsgs, greedyMsgs, 100*float64(canonicalMsgs-greedyMsgs)/float64(canonicalMsgs))
}

// TestGreedyAdmitterCoversAllNodes: the admitter must eventually
// release every node, including isolated ones (empty frontier from the
// start) — otherwise the runner's deadlock check fires.
func TestGreedyAdmitterCoversAllNodes(t *testing.T) {
	// A path plus two isolated vertices.
	gb := graph.NewBuilder(5)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	s, err := pref.Build(gb.MustGraph(), pref.NewRandomMetric(rng.New(4)), pref.UniformQuota(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	res, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: 1}), RunOptions{Scheduler: SchedulerSpec{Kind: SchedGreedy}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matching.Equal(matching.LIC(s, tbl)) {
		t.Fatal("greedy LID != LIC on the path-with-isolates instance")
	}
}
