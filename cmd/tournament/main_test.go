package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"overlaymatch/internal/tournament"
	"overlaymatch/internal/workload"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListFlag(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range append(workload.Families(), "lid", "gs", "bp") {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output misses %q:\n%s", want, out)
		}
	}
}

func TestDefaultSuiteRun(t *testing.T) {
	out, errb, code := runCLI(t, "-n", "32", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, fam := range workload.Families() {
		if !strings.Contains(out, fam) {
			t.Fatalf("output misses family %q", fam)
		}
	}
	if !strings.Contains(out, "podium") {
		t.Fatal("summary table missing")
	}
}

func TestExplicitScenariosAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bracket.json")
	outPath := filepath.Join(dir, "tables.md")
	_, errb, code := runCLI(t,
		"-scenarios", "swarm:n=32,zipf=1.4/master:n=24",
		"-seed", "9", "-workers", "2", "-md",
		"-out", outPath, "-json", jsonPath, "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	tablesMD, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tablesMD), "|") {
		t.Fatal("-md output is not markdown")
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var cells []tournament.Cell
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*len(tournament.DefaultAlgorithms()) {
		t.Fatalf("%d cells for 2 scenarios", len(cells))
	}
	for _, c := range cells {
		if c.Rank < 1 || c.Msgs <= 0 || len(c.RoundsToEps) == 0 {
			t.Fatalf("cell %s/%s unscored: %+v", c.Scenario, c.Algorithm, c)
		}
	}
	for _, name := range []string{"tournament_1.csv", "tournament_2.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("csv artifact missing: %v", err)
		}
	}
}

// TestCLIDeterministicAcrossWorkers: the rendered tables are
// byte-identical for any -workers value — the CLI inherits the
// bracket's schedule-freedom.
func TestCLIDeterministicAcrossWorkers(t *testing.T) {
	base, _, code := runCLI(t, "-n", "24", "-seed", "11", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, w := range []string{"2", "4"} {
		out, _, code := runCLI(t, "-n", "24", "-seed", "11", "-workers", w)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d", w, code)
		}
		if out != base {
			t.Fatalf("output differs between -workers 1 and -workers %s", w)
		}
	}
}

func TestBadFlagsAndSpecs(t *testing.T) {
	if _, _, code := runCLI(t, "-scenarios", "nosuchfamily"); code != 2 {
		t.Fatalf("unknown family: exit %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-scenarios", "swarm:radius=2"); code != 2 {
		t.Fatalf("inapplicable key: exit %d, want 2", code)
	}
	for _, iv := range []string{"-1", "NaN", "+Inf", "-Inf"} {
		if _, errb, code := runCLI(t, "-probe-interval", iv); code != 2 || !strings.Contains(errb, "non-negative and finite") {
			t.Fatalf("probe interval %s: exit %d (%s), want 2", iv, code, errb)
		}
	}
	if _, errb, code := runCLI(t, "-scenarios", "   /  "); code != 2 || !strings.Contains(errb, "no scenarios") {
		t.Fatalf("empty list: exit %d (%s)", code, errb)
	}
}
