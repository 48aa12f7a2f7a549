package experiments

import (
	"bytes"
	"strings"
	"testing"

	"overlaymatch/internal/faults"
	mreg "overlaymatch/internal/metrics"
)

// TestTablesUnchangedByFaultsOff mirrors TestTablesUnchangedByMetrics
// for the fault-injection hook: attaching a zero-spec adversary (the
// injector is constructed and consulted on every send, but never
// fires) must leave the policy-threaded experiments byte-identical to
// no adversary at all.
func TestTablesUnchangedByFaultsOff(t *testing.T) {
	zero := &faults.Spec{}
	for _, id := range []string{"E2", "E5", "E6"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var plain, faulted bytes.Buffer
		if _, err := RunAndRender(e, Config{Seed: 1, Quick: true}, &plain, false, ""); err != nil {
			t.Fatalf("%s plain: %v", id, err)
		}
		if _, err := RunAndRender(e, Config{Seed: 1, Quick: true, Faults: zero, FaultsSeed: 42}, &faulted, false, ""); err != nil {
			t.Fatalf("%s with zero faults: %v", id, err)
		}
		if !bytes.Equal(plain.Bytes(), faulted.Bytes()) {
			t.Fatalf("%s: tables differ with a zero-spec adversary attached", id)
		}
	}
}

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

// TestE15CustomRung: a Config.Faults spec appends a "custom" row and
// moves nothing else: the built-in rungs draw their injections from
// the run seed alone, so a fault seed that reseeds the custom rung
// leaves every light/medium/heavy row as the plain run has it.
func TestE15CustomRung(t *testing.T) {
	csvLines := func(cfg Config) []string {
		t.Helper()
		tables, err := E15FaultSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tables[0].WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(buf.String()), "\n")
	}
	plain := csvLines(Config{Seed: 2, Quick: true})
	custom := csvLines(Config{
		Seed: 2, Quick: true,
		Faults:     &faults.Spec{Drop: 0.05, Delay: 0.1, DelayScale: 3},
		FaultsSeed: 42,
	})
	if len(custom) <= len(plain) {
		t.Fatal("custom fault spec did not add a table rung")
	}
	for i, row := range plain {
		if custom[i] != row {
			t.Fatalf("row %d moved when the custom rung was added:\n plain  %s\n custom %s", i, row, custom[i])
		}
	}
	for _, row := range custom[len(plain):] {
		if !strings.HasPrefix(row, "custom,") {
			t.Fatalf("extra row %q is not a custom rung", row)
		}
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
