package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func mkRow(name string, n, workers int, ns, b, allocs float64, metrics map[string]float64) Row {
	return Row{
		Name: name, N: n, Phase: "after", Workers: workers, Iters: 1,
		NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs, Metrics: metrics,
	}
}

func TestCompareRowsDetectsAllocRegression(t *testing.T) {
	base := []Row{mkRow("LIC", 1000, 0, 100, 1000, 10, nil)}
	// 10 → 20 allocs/op is a 100% regression: past 25% tolerance plus
	// the 2-alloc slack.
	fresh := []Row{mkRow("LIC", 1000, 0, 100, 1000, 20, nil)}
	failures, _ := compareRows(base, fresh, 25)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs_per_op") {
		t.Fatalf("expected one allocs_per_op failure, got %v", failures)
	}
}

func TestCompareRowsRespectsToleranceAndSlack(t *testing.T) {
	base := []Row{
		mkRow("LIC", 1000, 0, 100, 1000, 10, nil),
		mkRow("Sort", 1000, 0, 100, 0, 0, nil), // alloc-free baseline
	}
	fresh := []Row{
		mkRow("LIC", 1000, 0, 500, 1200, 12, nil), // +20% < 25% tolerance; ns 5x not gated
		mkRow("Sort", 1000, 0, 100, 48, 1.5, nil), // within absolute slack (2 allocs / 64 B)
	}
	failures, notes := compareRows(base, fresh, 25)
	if len(failures) != 0 {
		t.Fatalf("expected no failures, got %v", failures)
	}
	var sawNs bool
	for _, n := range notes {
		if strings.Contains(n, "ns/op") {
			sawNs = true
		}
	}
	if !sawNs {
		t.Fatalf("expected an ungated ns/op note, got %v", notes)
	}
}

func TestCompareRowsDetectsWorkloadDrift(t *testing.T) {
	base := []Row{mkRow("LIC", 1000, 0, 100, 1000, 10,
		map[string]float64{"edges": 4000, "matched": 900, "workers": 8})}
	fresh := []Row{mkRow("LIC", 1000, 0, 100, 1000, 10,
		map[string]float64{"matched": 901, "workers": 2})}
	failures, _ := compareRows(base, fresh, 25)
	// "edges" disappeared and "matched" drifted; "workers" is exempt.
	if len(failures) != 2 {
		t.Fatalf("expected 2 failures (missing metric + drift), got %v", failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, `"edges" disappeared`) ||
		!strings.Contains(joined, `"matched" changed`) {
		t.Fatalf("unexpected failure set: %v", failures)
	}
	if strings.Contains(joined, "workers") {
		t.Fatalf("the workers sweep label must not be gated: %v", failures)
	}
}

func TestMatchBaselineWorkersFallback(t *testing.T) {
	// Pre-sweep baseline: the Workers column did not exist (0).
	base := []Row{mkRow("LICPar", 1000, 0, 100, 1000, 10, nil)}
	fresh := []Row{
		mkRow("LICPar", 1000, 2, 100, 1000, 10, nil),
		mkRow("LICPar", 1000, 4, 100, 1000, 30, nil), // regressed vs fallback
	}
	adj, err := matchBaseline(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range adj {
		if r.Workers != 0 {
			t.Fatalf("row %d: expected fallback to workers=0, got %d", i, r.Workers)
		}
	}
	failures, _ := compareRows(base, adj, 25)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs_per_op") {
		t.Fatalf("expected the regressed swept row to fail vs the workers=0 baseline, got %v", failures)
	}

	// A baseline that does carry the swept key must keep the key as-is.
	base2 := []Row{mkRow("LICPar", 1000, 4, 100, 1000, 10, nil)}
	adj2, err := matchBaseline(base2, []Row{mkRow("LICPar", 1000, 4, 100, 1000, 10, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if adj2[0].Workers != 4 {
		t.Fatalf("swept baseline present, key must not be rewritten: got workers=%d", adj2[0].Workers)
	}
}

func TestMatchBaselineNeverCrossesWorkerCounts(t *testing.T) {
	// Regression guard: the baseline family carries explicit worker
	// rows (1 and 2) but not the fresh row's count (8). The old
	// per-key fallback silently gated w=8 against a stray workers=0
	// row of another family era; a swept family must instead leave the
	// unmatched count as an unmatched note.
	base := []Row{
		mkRow("LICPar", 1000, 1, 100, 1000, 10, nil),
		mkRow("LICPar", 1000, 2, 110, 1000, 10, nil),
	}
	fresh := []Row{mkRow("LICPar", 1000, 8, 100, 1000, 500, nil)} // would "regress" if cross-matched
	adj, err := matchBaseline(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if adj[0].Workers != 8 {
		t.Fatalf("swept family: fresh w=8 row must keep its key, got workers=%d", adj[0].Workers)
	}
	failures, notes := compareRows(base, adj, 25)
	if len(failures) != 0 {
		t.Fatalf("a worker count the baseline never measured must not gate, got %v", failures)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "no baseline") {
		t.Fatalf("expected an unmatched note for the w=8 row, got %v", notes)
	}
}

func TestMatchBaselineRejectsMixedWorkerFamily(t *testing.T) {
	base := []Row{
		mkRow("LICPar", 1000, 0, 100, 1000, 10, nil),
		mkRow("LICPar", 1000, 1, 100, 1000, 10, nil),
	}
	if _, err := matchBaseline(base, []Row{mkRow("LICPar", 1000, 2, 100, 1000, 10, nil)}); err == nil {
		t.Fatal("a baseline family mixing workers=0 and explicit worker rows must be rejected")
	}
	// Distinct families may use different eras without conflict.
	ok := []Row{
		mkRow("LIC", 1000, 0, 100, 1000, 10, nil),
		mkRow("LICPar", 1000, 1, 100, 1000, 10, nil),
	}
	if _, err := matchBaseline(ok, nil); err != nil {
		t.Fatalf("different families in different sweep eras must be fine: %v", err)
	}
}

func TestCompareRowsMissingRowsAreNotes(t *testing.T) {
	base := []Row{
		mkRow("LIC", 1000, 0, 100, 1000, 10, nil),
		mkRow("LIC", 100000, 0, 100, 1000, 10, nil), // dropped by -quick
	}
	fresh := []Row{
		mkRow("LIC", 1000, 0, 100, 1000, 10, nil),
		mkRow("NewThing", 1000, 0, 100, 1000, 10, nil), // no baseline yet
	}
	failures, notes := compareRows(base, fresh, 25)
	if len(failures) != 0 {
		t.Fatalf("coverage gaps must be notes, not failures: %v", failures)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "not measured") || !strings.Contains(joined, "no baseline") {
		t.Fatalf("expected skip notes on both sides, got %v", notes)
	}
}

// TestSweepMatchesGatedBaseline: a gate run compares a *Par row only
// at a worker count its baseline holds, so the after-phase *Par rows
// of the file `make bench-check` gates against must hold exactly
// workerSweep in every family. The sweep {8} must fail the check, or a
// gate that drifts off its baseline would pass it.
func TestSweepMatchesGatedBaseline(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", gatedFile))
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if err := sweepMismatch(f.Rows, workerSweep); err != nil {
		t.Fatalf("%s: %v", gatedFile, err)
	}
	if sweepMismatch(f.Rows, []int{8}) == nil {
		t.Fatalf("%s: the sweep {8} matched its *Par rows", gatedFile)
	}
}

// sweepMismatch names a (name, n) family of after-phase *Par rows
// whose worker counts are not exactly sweep.
func sweepMismatch(rows []Row, sweep []int) error {
	fams := make(map[famKey][]int)
	for _, r := range rows {
		if r.Phase == "after" && strings.HasSuffix(r.Name, "Par") {
			fam := famKey{r.Name, r.N, r.Phase}
			fams[fam] = append(fams[fam], r.Workers)
		}
	}
	if len(fams) == 0 {
		return errors.New("no after-phase *Par rows")
	}
	want := slices.Clone(sweep)
	slices.Sort(want)
	for fam, ws := range fams {
		if slices.Sort(ws); !slices.Equal(ws, want) {
			return fmt.Errorf("%s/n=%d holds workers %v, the sweep is %v", fam.Name, fam.N, ws, want)
		}
	}
	return nil
}
