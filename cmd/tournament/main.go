// Command tournament runs the stability tournament: the contenders of
// internal/tournament (LID, distributed Gale–Shapley, one-round backup
// placement) bracketed over production-shaped workload scenarios, each
// cell scored with the stability yardsticks of the telemetry plane —
// matched-weight fraction of the LIC optimum, blocking pairs under the
// eq.-9 weight order, rounds-to-ε, and message/byte cost.
//
// Scenarios are named in the internal/workload scenario grammar, so a
// CLI run and a bracket cell of experiment E18 name the same instance
// the same way. Everything is deterministic given (-scenarios, -seed)
// and bit-identical for any -workers value.
//
// Examples:
//
//	tournament
//	tournament -scenarios swarm:n=512,zipf=1.4 -seed 7 -md
//	tournament -n 128 -json bracket.json -csv out/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"overlaymatch/internal/obs"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/tournament"
	"overlaymatch/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tournament", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarios = fs.String("scenarios", "default", `"/"-separated workload specs ("swarm:n=512,zipf=1.4/geo:n=512") or "default" for one defaulted spec per family`)
		n         = fs.Int("n", 256, "node count of the default suite (ignored when -scenarios is explicit)")
		seed      = fs.Uint64("seed", 1, "master seed; each scenario's instance seed derives from it and the canonical spec string")
		workers   = fs.Int("workers", 0, "parallel workers for the deterministic builds (0 = GOMAXPROCS; output is bit-identical for any value)")
		md        = fs.Bool("md", false, "emit Markdown instead of aligned text")
		out       = fs.String("out", "", "write the tables to this file instead of stdout")
		jsonOut   = fs.String("json", "", "write every scored cell as a JSON array to this file")
		csvDir    = fs.String("csv", "", "also write each table as CSV into this directory")
		list      = fs.Bool("list", false, "list the scenario families and contenders, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintf(stdout, "scenario families: %s\n", strings.Join(workload.Families(), " "))
		var names []string
		for _, alg := range tournament.DefaultAlgorithms() {
			names = append(names, alg.Name())
		}
		fmt.Fprintf(stdout, "contenders:        %s\n", strings.Join(names, " "))
		return 0
	}

	specs, err := parseScenarios(*scenarios, *n)
	if err != nil {
		fmt.Fprintf(stderr, "tournament: %v\n", err)
		return 2
	}
	results, err := tournament.RunBracket(specs, tournament.DefaultAlgorithms(), tournament.Options{
		Seed:    *seed,
		Workers: *workers,
	})
	if err != nil {
		fmt.Fprintf(stderr, "tournament: %v\n", err)
		return 1
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "tournament: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	tables := renderTables(results)
	for _, t := range tables {
		if *md {
			err = t.WriteMarkdown(w)
		} else {
			err = t.WriteText(w)
		}
		if err == nil {
			_, err = fmt.Fprintln(w)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tournament: %v\n", err)
			return 1
		}
	}
	if *csvDir != "" {
		if err := writeCSVs(tables, *csvDir); err != nil {
			fmt.Fprintf(stderr, "tournament: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := writeCells(results, *jsonOut); err != nil {
			fmt.Fprintf(stderr, "tournament: %v\n", err)
			return 1
		}
	}
	return 0
}

// parseScenarios resolves the -scenarios flag: the default suite at
// size n, or one spec per comma-separated grammar string.
func parseScenarios(in string, n int) ([]workload.Spec, error) {
	if in == "default" {
		return workload.DefaultSuite(n), nil
	}
	var specs []workload.Spec
	for _, entry := range splitSpecList(in) {
		spec, err := workload.Parse(entry)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no scenarios in %q", in)
	}
	return specs, nil
}

// splitSpecList splits a scenario list on "/" (and surrounding space),
// keeping the workload grammar's internal commas intact:
//
//	swarm:n=128,zipf=1.4/geo:n=128
func splitSpecList(in string) []string {
	var out []string
	for _, part := range strings.Split(in, "/") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// renderTables builds the bracket and podium tables from ranked
// results — the same two shapes experiment E18 emits.
func renderTables(results []tournament.ScenarioResult) []*stats.Table {
	bracket := stats.NewTable("stability tournament (ranked per scenario)",
		"scenario", "alg", "rank", "weight frac", "blocking pairs", "unmatched",
		"eps=0.01", "eps=0", "msgs", "bytes", "final t")
	summary := stats.NewTable("per-scenario podium",
		"scenario", "spec", "n", "edges", "winner", "weight fracs (lid/gs/bp)")
	for _, r := range results {
		frac := map[string]string{}
		for _, c := range r.Cells {
			frac[c.Algorithm] = fmt.Sprintf("%.4f", c.WeightFrac)
			// Read through obs.SummaryValue: a missing rung renders as
			// the NeverConverged sentinel, never as zero.
			bracket.AddRowf(c.Scenario, c.Algorithm, c.Rank,
				fmt.Sprintf("%.4f", c.WeightFrac), c.BlockingPairs, c.Unmatched,
				obs.SummaryValue(c.RoundsToEps, 0.01), obs.SummaryValue(c.RoundsToEps, 0),
				c.Msgs, c.Bytes, c.FinalTime)
		}
		win := r.Cells[0]
		summary.AddRowf(win.Scenario, r.Spec.String(), win.N, win.Edges, win.Algorithm,
			frac["lid"]+"/"+frac["gs"]+"/"+frac["bp"])
	}
	return []*stats.Table{bracket, summary}
}

// writeCSVs writes each table as "tournament_<k>.csv" under dir.
func writeCSVs(tables []*stats.Table, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for k, t := range tables {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("tournament_%d.csv", k+1)))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeCells flattens the ranked cells into one JSON array — the
// machine-readable bracket.
func writeCells(results []tournament.ScenarioResult, path string) error {
	var cells []tournament.Cell
	for _, r := range results {
		cells = append(cells, r.Cells...)
	}
	raw, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
