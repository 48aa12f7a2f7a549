package experiments

import (
	"bytes"
	"strings"
	"testing"

	mreg "overlaymatch/internal/metrics"
)

// TestE15Quick runs the sweep in quick mode: every rung must preserve
// the LIC equivalence, faults must actually be injected above "off",
// and the transport counters must land in the sink registry.
func TestE15Quick(t *testing.T) {
	e, ok := Lookup("E15")
	if !ok {
		t.Fatal("E15 missing from the registry")
	}
	sink := mreg.New()
	tables, err := e.Run(Config{Seed: 1, Quick: true, Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("E15 returned %d tables, want 1", len(tables))
	}
	var buf bytes.Buffer
	if err := tables[0].WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, rung := range []string{"off", "light", "medium", "heavy"} {
		if !strings.Contains(out, rung) {
			t.Fatalf("E15 table missing intensity %q:\n%s", rung, out)
		}
	}
	found := false
	for _, s := range sink.Snapshot().Samples {
		if s.Name == "reliable_retransmits_total" && s.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("E15 under heavy drop produced no retransmits in the sink")
	}
}

// TestRegistryQuickCoverage runs EVERY registered experiment in quick
// mode and requires it to succeed with at least one non-empty table —
// so registering an experiment (like E15) without it being runnable,
// or `cmd/experiments -run all` silently skipping one, cannot pass CI.
func TestRegistryQuickCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	all := All()
	if len(all) < 16 {
		t.Fatalf("registry lists %d experiments, want >= 16", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		tables, err := e.Run(Config{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s returned no tables", e.ID)
		}
		for k, tbl := range tables {
			var buf bytes.Buffer
			if err := tbl.WriteText(&buf); err != nil {
				t.Fatalf("%s table %d: %v", e.ID, k, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s table %d rendered empty", e.ID, k)
			}
		}
	}
}
