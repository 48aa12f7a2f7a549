package faults

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"overlaymatch/internal/workload"
)

// TestExploreSweepFindsNoViolations is the acceptance sweep: thousands
// of adversarial schedules over gnp/geometric/ba at n=80, b ∈ {1,2,3},
// through the reliable substrate — zero violations expected. The full
// 3000-seed run is long; -short keeps a 10% slice of every combo.
func TestExploreSweepFindsNoViolations(t *testing.T) {
	perCombo := 334 // 9 combos ≈ 3000 seeds
	if testing.Short() {
		perCombo = 34
	}
	spec := Spec{Drop: 0.08, Dup: 0.06, Corrupt: 0.04, Delay: 0.12, DelayScale: 5}
	trials, injections := 0, 0
	for _, topo := range []string{"gnp", "geometric", "ba"} {
		for b := 1; b <= 3; b++ {
			w := workload.Synthetic{Topology: topo, Metric: "random", N: 80, B: b, Seed: uint64(b)*31 + 17}
			sys, err := w.Build()
			if err != nil {
				t.Fatalf("%s/b=%d: build: %v", topo, b, err)
			}
			rep := Explore(ExploreOptions{
				Spec:     spec,
				BaseSeed: uint64(b) * 100_000,
				Count:    perCombo,
				Workers:  runtime.GOMAXPROCS(0),
			}, LIDTrial(sys, TrialOptions{Reliable: true}))
			if len(rep.Violations) != 0 {
				v := rep.Violations[0]
				t.Fatalf("%s/b=%d: %d violations; first: seed=%d err=%q events=%d",
					topo, b, len(rep.Violations), v.Seed, v.Err, len(v.Events))
			}
			if rep.Trials != perCombo {
				t.Fatalf("%s/b=%d: ran %d trials, want %d", topo, b, rep.Trials, perCombo)
			}
			trials += rep.Trials
			injections += rep.Injections
		}
	}
	if injections == 0 {
		t.Fatal("sweep injected nothing — the adversary is disconnected")
	}
	t.Logf("trials=%d injections=%d", trials, injections)
}

// TestExploreGreedySchedulerFindsNoViolations reruns the adversarial
// sweep with the heaviest-frontier admission scheduler threaded into
// the trial (TrialOptions.Scheduler): every oracle — LID ≡ LIC,
// validity, termination — must stay green, the proof the scheduler is
// a pure scheduling win under faults and asynchrony, not just on the
// clean runs the equivalence corpus covers.
func TestExploreGreedySchedulerFindsNoViolations(t *testing.T) {
	perCombo := 120
	if testing.Short() {
		perCombo = 20
	}
	spec := Spec{Drop: 0.08, Dup: 0.06, Corrupt: 0.04, Delay: 0.12, DelayScale: 5}
	trials, injections := 0, 0
	for _, topo := range []string{"gnp", "geometric", "ba"} {
		w := workload.Synthetic{Topology: topo, Metric: "random", N: 60, B: 2, Seed: 77}
		sys, err := w.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", topo, err)
		}
		rep := Explore(ExploreOptions{
			Spec:     spec,
			BaseSeed: 9_000_000,
			Count:    perCombo,
			Workers:  runtime.GOMAXPROCS(0),
		}, LIDTrial(sys, TrialOptions{Reliable: true, Scheduler: "greedy"}))
		if len(rep.Violations) != 0 {
			v := rep.Violations[0]
			t.Fatalf("%s: %d violations under greedy scheduling; first: seed=%d err=%q events=%d",
				topo, len(rep.Violations), v.Seed, v.Err, len(v.Events))
		}
		trials += rep.Trials
		injections += rep.Injections
	}
	if injections == 0 {
		t.Fatal("sweep injected nothing — the adversary is disconnected")
	}
	t.Logf("greedy trials=%d injections=%d", trials, injections)
}

// TestExploreCatchesBrokenProtocol is the negative control the
// acceptance criteria demand: an intentionally broken configuration —
// bare LID with message duplication, which violates the paper's
// exactly-once link model — must be caught, and the shrinker must
// minimize the replay to at most 25 events (the real minimum is one
// duplicated PROP).
func TestExploreCatchesBrokenProtocol(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 30, B: 2, Seed: 9}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	broken := LIDTrial(sys, TrialOptions{Reliable: false, MaxDeliveries: 200000})
	rep := Explore(ExploreOptions{
		Spec:          Spec{Dup: 0.3},
		BaseSeed:      1,
		Count:         60,
		Workers:       4,
		MaxViolations: 3,
	}, broken)
	if len(rep.Violations) == 0 {
		t.Fatal("duplication on bare LID went undetected across 60 seeds")
	}
	v := rep.Violations[0]
	if len(v.Events) == 0 || len(v.Events) > 25 {
		t.Fatalf("minimized replay has %d events, want 1..25 (raw %d)", len(v.Events), v.RawEvents)
	}
	if len(v.Events) > v.RawEvents {
		t.Fatalf("shrinker grew the schedule: %d -> %d", v.RawEvents, len(v.Events))
	}
	// The minimized schedule must still reproduce by replay.
	if err := runTrial(broken, v.Seed, NewReplayInjector(Spec{Dup: 0.3}, v.Events)); err == nil {
		t.Fatal("minimized schedule no longer reproduces the violation")
	}
	t.Logf("violation seed=%d %q: %d raw events shrunk to %d in %d runs",
		v.Seed, v.Err, v.RawEvents, len(v.Events), v.ShrinkRuns)
}

// TestShrinkIsOneMinimal checks the shrinker contract on the broken
// variant: removing ANY single event from the minimized schedule makes
// the failure vanish (local 1-minimality), given budget.
func TestShrinkIsOneMinimal(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: 2}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	broken := LIDTrial(sys, TrialOptions{Reliable: false, MaxDeliveries: 200000})
	var seed uint64
	var events []Event
	for s := uint64(0); s < 80; s++ {
		inj := NewInjector(Spec{Dup: 0.25}, injectionSeed(s))
		if runTrial(broken, s, inj) != nil {
			seed, events = s, append([]Event(nil), inj.Events()...)
			break
		}
	}
	if events == nil {
		t.Skip("no failing seed in range (spec too gentle for this instance)")
	}
	min, runs := Shrink(Spec{Dup: 0.25}, seed, events, broken, 500)
	if runs >= 500 {
		t.Logf("shrink budget exhausted at %d events", len(min))
	}
	for i := range min {
		cand := append(append([]Event(nil), min[:i]...), min[i+1:]...)
		if runTrial(broken, seed, NewReplayInjector(Spec{Dup: 0.25}, cand)) != nil {
			t.Fatalf("schedule not 1-minimal: still fails without event %d (%+v)", i, min[i])
		}
	}
}

// TestReplayFileRoundTrip freezes a shrunk violation into a replay
// file, reloads it through the strict loader, and re-executes it — the
// overlaysim -replay path end to end, minus the CLI.
func TestReplayFileRoundTrip(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 30, B: 2, Seed: 9}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Dup: 0.3}
	broken := LIDTrial(sys, TrialOptions{Reliable: false})
	rep := Explore(ExploreOptions{Spec: spec, BaseSeed: 1, Count: 60, Workers: 4, MaxViolations: 1}, broken)
	if len(rep.Violations) == 0 {
		t.Fatal("no violation to freeze")
	}
	v := rep.Violations[0]
	f := &ReplayFile{
		Version:  ReplayVersion,
		Workload: w,
		Seed:     v.Seed,
		Spec:     spec.String(),
		Reliable: false,
		Err:      v.Err,
		Events:   v.Events,
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == "" {
		t.Fatal("replay did not reproduce the violation")
	}
	if !out.Matches {
		t.Fatalf("replay reproduced a different violation: %q vs recorded %q", out.Violation, loaded.Err)
	}
}

// TestLoadReplayRejectsGarbage spot-checks the strict loader (the fuzz
// target explores this space much harder).
func TestLoadReplayRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not json",
		"{}",
		`{"version":99,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random"},"spec":"off","events":[]}`,
		`{"version":2,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random"},"spec":"off","events":[]} trailing`,
		`{"version":2,"workload":{"topology":"evil","n":10,"b":1,"metric":"random"},"spec":"off","events":[]}`,
		`{"version":2,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random"},"spec":"drop=2","events":[]}`,
		`{"version":2,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random"},"spec":"off","events":[{"seq":-1,"kind":"drop"}]}`,
		`{"version":2,"workload":{"topology":"gnp","n":10,"b":1,"metric":"random"},"spec":"off","events":[],"surprise":1}`,
		`{"version":2,"workload":{"topology":"gnp","n":1048576,"b":1,"metric":"random","p":1},"spec":"off","events":[]}`,
		`{"version":2,"workload":{"topology":"complete","n":8192,"b":1,"metric":"random"},"spec":"off","events":[]}`,
		`{"version":2,"workload":{"topology":"ring","n":5000,"b":1,"metric":"transactions"},"spec":"off","events":[]}`,
	} {
		if _, err := LoadReplay(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("LoadReplay(%q) succeeded, want error", in)
		}
	}
}

// TestLoadReplayRejectsVersion1: a version-1 file named its instance
// in the recipe before workload.Synthetic, so the loader refuses it and
// says why instead of replaying a different instance.
func TestLoadReplayRejectsVersion1(t *testing.T) {
	in := `{"version":1,"workload":{"topology":"ring","n":5,"b":1,"metric":"random"},"spec":"off","events":[]}`
	_, err := LoadReplay(bytes.NewReader([]byte(in)))
	if err == nil || !strings.Contains(err.Error(), "recipe") {
		t.Fatalf("LoadReplay(version 1) = %v, want an error naming the recipe change", err)
	}
	if _, err := LoadReplay(bytes.NewReader([]byte(strings.Replace(in, `"version":1`, `"version":2`, 1)))); err != nil {
		t.Fatalf("the same file as version 2: %v", err)
	}
}

// TestExploreDeterministicReport pins Explore's worker-count
// independence: the same sweep with 1 and 8 workers yields the same
// report, both when the whole sweep runs and when MaxViolations stops
// it early. A capped sweep with 8 workers finishes trials claimed past
// the cap-th violation; the report must still count only the seeds up
// to it, so the capped sweep repeats to give those trials a chance to
// land.
func TestExploreDeterministicReport(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: 2}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	broken := LIDTrial(sys, TrialOptions{Reliable: false, MaxDeliveries: 200000})
	run := func(workers, maxViolations int) Report {
		return Explore(ExploreOptions{
			Spec: Spec{Dup: 0.25}, BaseSeed: 0, Count: 40,
			Workers: workers, MaxViolations: maxViolations,
		}, broken)
	}
	same := func(a, b Report) {
		t.Helper()
		if a.Trials != b.Trials || a.Injections != b.Injections || a.Degraded != b.Degraded {
			t.Fatalf("totals diverge: %s vs %s", a.Summary(), b.Summary())
		}
		if len(a.Violations) != len(b.Violations) {
			t.Fatalf("violation counts diverge: %d vs %d", len(a.Violations), len(b.Violations))
		}
		for i := range a.Violations {
			if a.Violations[i].Seed != b.Violations[i].Seed || a.Violations[i].Err != b.Violations[i].Err {
				t.Fatalf("violation %d diverges: %+v vs %+v", i, a.Violations[i], b.Violations[i])
			}
		}
	}
	same(run(1, 1000), run(8, 1000))
	capped := run(1, 3)
	if len(capped.Violations) != 3 || capped.Trials >= 40 {
		t.Fatalf("the cap did not stop the sweep: %s", capped.Summary())
	}
	for rep := 0; rep < 10; rep++ {
		same(capped, run(8, 3))
	}
}
