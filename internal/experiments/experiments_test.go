package experiments

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	mreg "overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/workload"
)

// The experiment runners enforce the paper's bounds internally
// (returning errors on violation), so running each in Quick mode is
// itself a meaningful end-to-end test of the whole stack.

func quickCfg() Config { return Config{Seed: 12345, Quick: true} }

func TestAllRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(exps))
	}
	for i, e := range exps {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("registry order wrong at %d: %s", i, e.ID)
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("E5"); !ok {
		t.Fatal("Lookup(E5) failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("Lookup(E99) should fail")
	}
}

func TestE1(t *testing.T) {
	tables, err := E1LICWeightRatio(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].NumRows() == 0 {
		t.Fatal("E1 produced no rows")
	}
}

func TestE2(t *testing.T) {
	tables, err := E2LIDEquivalence(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() == 0 {
		t.Fatal("E2 produced no rows")
	}
}

func TestE3(t *testing.T) {
	tables, err := E3SatisfactionRatio(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() == 0 {
		t.Fatal("E3 produced no rows")
	}
}

func TestE4(t *testing.T) {
	tables, err := E4StaticShare(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E4 should produce sweep + tightness tables, got %d", len(tables))
	}
	// The tightness table's gap column must be ~0 (bound attained).
	var b strings.Builder
	if err := tables[1].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		gap, err := strconv.ParseFloat(cells[len(cells)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if gap > 1e-9 || gap < -1e-9 {
			t.Fatalf("adversarial instance gap %v, want 0", gap)
		}
	}
}

func TestE5(t *testing.T) {
	tables, err := E5MessageComplexity(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("E5 should produce 3 series, got %d", len(tables))
	}
}

func TestE6(t *testing.T) {
	tables, err := E6ConvergenceRounds(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].NumRows() == 0 {
		t.Fatal("E6 rows missing")
	}
}

func TestE7LIDWinsOnSatisfaction(t *testing.T) {
	tables, err := E7Baselines(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Parse the CSV and verify that per (topology, metric) group, lid's
	// total weight is the maximum among strategies, and lid's mean
	// satisfaction beats random's.
	var b strings.Builder
	if err := tables[0].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	type row struct {
		strategy string
		sat, wgt float64
	}
	groups := map[string][]row{}
	for _, line := range lines[1:] {
		c := strings.Split(line, ",")
		sat, _ := strconv.ParseFloat(c[4], 64)
		wgt, _ := strconv.ParseFloat(c[5], 64)
		key := c[0] + "/" + c[1]
		groups[key] = append(groups[key], row{c[3], sat, wgt})
	}
	// LID holds only an approximation guarantee on the true objective,
	// so a lucky baseline can edge it on one instance; the shape claim
	// is aggregate dominance across the whole grid, plus per-group
	// weight dominance (LID greedily maximizes exactly the weight).
	sums := map[string]float64{}
	for key, rows := range groups {
		var lidW float64
		found := map[string]bool{}
		for _, r := range rows {
			sums[r.strategy] += r.sat
			found[r.strategy] = true
			if r.strategy == "lid" {
				lidW = r.wgt
			}
		}
		for _, want := range []string{"lid", "random", "selfish", "bestresp"} {
			if !found[want] {
				t.Fatalf("%s: strategy %s missing", key, want)
			}
		}
		for _, r := range rows {
			if r.strategy == "selfish" && r.wgt > lidW+1e-9 {
				t.Fatalf("%s: selfish weight %v above lid %v", key, r.wgt, lidW)
			}
		}
	}
	if sums["lid"] <= sums["random"] {
		t.Fatalf("aggregate: lid satisfaction %v not above random %v", sums["lid"], sums["random"])
	}
	if sums["lid"] <= sums["selfish"] {
		t.Fatalf("aggregate: lid satisfaction %v not above selfish %v", sums["lid"], sums["selfish"])
	}
}

func TestE8(t *testing.T) {
	if _, err := E8Identities(quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestE9(t *testing.T) {
	tables, err := E9Churn(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() == 0 {
		t.Fatal("E9 produced no rows")
	}
}

func TestE10(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tables, err := E10Scalability(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() == 0 {
		t.Fatal("E10 produced no rows")
	}
}

func TestRunAndRenderTextAndMarkdown(t *testing.T) {
	e, _ := Lookup("E4")
	var txt, md strings.Builder
	if _, err := RunAndRender(e, quickCfg(), &txt, false, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAndRender(e, quickCfg(), &md, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "== E4") || !strings.Contains(md.String(), "### ") {
		t.Fatal("render output malformed")
	}
}

func TestDeterministicTables(t *testing.T) {
	render := func() string {
		var b strings.Builder
		tables, err := E5MessageComplexity(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tables {
			if err := tbl.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("experiment output not deterministic")
	}
}

func TestE11(t *testing.T) {
	tables, err := E11LossyLinks(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() != 5 {
		t.Fatalf("E11 rows = %d, want 5 loss levels", tables[0].NumRows())
	}
}

func TestE12(t *testing.T) {
	tables, err := E12Adversaries(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() == 0 {
		t.Fatal("E12 produced no rows")
	}
	// Every satisfaction ratio column must be within (0, 1.05]: honest
	// peers cannot beat their own adversary-free baseline by much
	// (small overshoot possible since LIC is not optimal).
	var b strings.Builder
	if err := tables[0].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	for _, line := range lines[1:] {
		c := strings.Split(line, ",")
		mean, err := strconv.ParseFloat(c[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if mean <= 0 || mean > 1.3 {
			t.Fatalf("implausible mean satisfaction ratio %v in %q", mean, line)
		}
	}
}

func TestE13(t *testing.T) {
	tables, err := E13Variants(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].NumRows() == 0 || tables[1].NumRows() == 0 {
		t.Fatal("E13 tables missing rows")
	}
}

// TestRunToCSV: a CSV directory adds one file per table to the same
// single run, so a metrics sink counts each LID execution once with or
// without -csv.
func TestRunToCSV(t *testing.T) {
	e, _ := Lookup("E5")
	runs := func(csvDir string) (int64, []string) {
		cfg := quickCfg()
		cfg.Metrics = mreg.New()
		files, err := RunAndRender(e, cfg, io.Discard, false, csvDir)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Metrics.Counter("lid_runs_total", "").Value(), files
	}
	plain, files := runs("")
	if plain == 0 || files != nil {
		t.Fatalf("without a CSV directory: lid_runs_total %d, files %v", plain, files)
	}
	dir := t.TempDir()
	withCSV, files := runs(dir)
	if withCSV != plain {
		t.Fatalf("lid_runs_total is %d with a CSV directory, %d without: the experiment ran more than once", withCSV, plain)
	}
	if want := []string{"E5_1.csv", "E5_2.csv", "E5_3.csv"}; !reflect.DeepEqual(files, want) {
		t.Fatalf("E5 wrote %v, want %v", files, want)
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "topology,") {
		t.Fatalf("csv header missing: %.80s", data)
	}
}

func TestE16(t *testing.T) {
	tables, err := E16SelfHealing(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E16 should produce sweep + control tables, got %d", len(tables))
	}
	if tables[0].NumRows() != 9 {
		t.Fatalf("E16 sweep rows = %d, want 3 topologies x 3 quotas", tables[0].NumRows())
	}
	if tables[1].NumRows() != 3 {
		t.Fatalf("E16 control rows = %d, want 3 topologies", tables[1].NumRows())
	}
	// The sweep's own hard errors enforce healed=LIC, detection and the
	// zero-fault control; here we additionally pin that detection
	// latency was measured (column 9 non-zero in every row).
	var b strings.Builder
	if err := tables[0].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	for _, line := range lines[1:] {
		c := strings.Split(line, ",")
		lat, err := strconv.ParseFloat(c[9], 64)
		if err != nil {
			t.Fatal(err)
		}
		if lat <= 0 {
			t.Fatalf("no detection latency measured in %q", line)
		}
	}
}

func TestE17(t *testing.T) {
	cfg := quickCfg()
	cfg.Metrics = mreg.New()
	tables, err := E17StabilityCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E17 should produce curve + summary tables, got %d", len(tables))
	}
	if tables[1].NumRows() != 3 {
		t.Fatalf("E17 summary rows = %d, want 3 topologies", tables[1].NumRows())
	}
	// The runner's hard errors enforce monotonicity, terminal stability
	// and worker determinism; here we pin that the canonical summary
	// reached the sink registry for the manifest to collect.
	g := cfg.Metrics.Gauge(obs.SummaryPrefix+obs.EpsKey(0), "")
	if g.Value() <= 0 {
		t.Fatalf("stability summary gauge not published (eps=0 at %v)", g.Value())
	}
}

func TestE19(t *testing.T) {
	tables, err := E19ChurnEngine(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("E19 should produce one table, got %d", len(tables))
	}
	// 3 families x (full + truncated sweep {1,2,4} + shed row).
	if got, want := tables[0].NumRows(), 15; got != want {
		t.Fatalf("E19 rows = %d, want %d (families x budgets)", got, want)
	}
}

func TestE18(t *testing.T) {
	tables, err := E18Tournament(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("E18 should produce bracket + summary + faulted tables, got %d", len(tables))
	}
	families := workload.Families()
	if got, want := tables[0].NumRows(), 3*len(families); got != want {
		t.Fatalf("E18 bracket rows = %d, want %d (3 contenders x %d families)", got, want, len(families))
	}
	if got, want := tables[2].NumRows(), 2*len(families); got != want {
		t.Fatalf("E18 faulted rows = %d, want %d (2 fault-tolerant contenders x %d families)", got, want, len(families))
	}
	if got, want := tables[1].NumRows(), len(families); got != want {
		t.Fatalf("E18 summary rows = %d, want one per family (%d)", got, want)
	}
	// Scenario-family coverage: every workload family must appear in the
	// summary, so adding a family without it entering the tournament (or
	// the suite silently dropping one) cannot pass the registry sweep.
	var b strings.Builder
	if err := tables[1].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		seen[strings.Split(line, ",")[0]] = true
	}
	for _, fam := range families {
		if !seen[fam] {
			t.Fatalf("E18 summary misses workload family %q", fam)
		}
	}
}

func TestE14(t *testing.T) {
	tables, err := E14Maintenance(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].NumRows() != 3 {
		t.Fatalf("E14 rows = %d, want 3 topologies", tables[0].NumRows())
	}
}
