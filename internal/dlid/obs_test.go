package dlid

import (
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// TestRepairSpansBalanced runs a churn schedule with a telemetry
// recorder attached: every repair epoch opens exactly one dlid.repair
// span (matching the per-node Epochs counters) and each span is closed
// by quiescence — settled, superseded by the next epoch, or abandoned
// by a leave. Recording must not change the repair outcome.
func TestRepairSpansBalanced(t *testing.T) {
	src := rng.New(9)
	g := gen.GNP(src, 30, 0.25)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	sched := Schedule(s, src.Split(), 12, 50, 0.6, 5)

	plain, err := RunSelfHeal(s, tbl, SelfHealConfig{}, sched, simnet.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(g.NumNodes())
	res, err := RunSelfHeal(s, tbl, SelfHealConfig{}, sched, simnet.Options{Seed: 9, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Live.Equal(res.Live) {
		t.Fatal("recording changed the repair outcome")
	}
	opens, closes, epochs := 0, 0, 0
	for _, e := range rec.Events() {
		switch {
		case e.Type == obs.EvOpen && e.Kind == "dlid.repair":
			opens++
		case e.Type == obs.EvClose:
			closes++
		}
	}
	for _, nd := range res.Nodes {
		epochs += nd.Epochs
	}
	if opens == 0 {
		t.Fatal("churn ran but no repair epochs recorded")
	}
	if opens != epochs {
		t.Fatalf("span opens = %d, Epochs counters say %d", opens, epochs)
	}
	if opens != closes {
		t.Fatalf("repair spans open/close = %d/%d, want balanced", opens, closes)
	}
}
