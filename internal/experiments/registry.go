package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"overlaymatch/internal/stats"
)

// Experiment is one entry of the suite.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]*stats.Table, error)
}

// All returns the full registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Theorem 2: LIC weight vs exact optimum", E1LICWeightRatio},
		{"E2", "Lemmas 3-6: LID equals LIC under asynchrony", E2LIDEquivalence},
		{"E3", "Theorem 3: LID satisfaction vs exact optimum", E3SatisfactionRatio},
		{"E4", "Lemma 1: static share bound and tightness", E4StaticShare},
		{"E5", "Lemma 5: termination and message complexity", E5MessageComplexity},
		{"E6", "Convergence rounds", E6ConvergenceRounds},
		{"E7", "Baseline comparison", E7Baselines},
		{"E8", "Satisfaction identities (Fig. 1 semantics)", E8Identities},
		{"E9", "Churn repair (future-work extension)", E9Churn},
		{"E10", "Wall-clock scalability", E10Scalability},
		{"E11", "Lossy links with the reliability substrate", E11LossyLinks},
		{"E12", "Adversaries vs tolerant LID (future-work extension)", E12Adversaries},
		{"E13", "Coverage-first and local-search variants (future-work ablations)", E13Variants},
		{"E14", "Distributed churn maintenance protocol (future-work extension)", E14Maintenance},
		{"E15", "Fault-injection sweep through the reliability substrate", E15FaultSweep},
		{"E16", "Self-healing under crash windows (detector + repair)", E16SelfHealing},
		{"E17", "Convergence telemetry: rounds vs blocking pairs", E17StabilityCurve},
		{"E18", "Stability tournament: LID vs Gale-Shapley vs backup placement", E18Tournament},
		{"E19", "Churn-survival engine: bounded repair under sustained churn", E19ChurnEngine},
		{"E20", "Greedy admission scheduling: messages and rounds vs canonical", E20GreedyScheduler},
	}
	sort.Slice(exps, func(i, j int) bool { return idLess(exps[i].ID, exps[j].ID) })
	return exps
}

// idLess orders E1 < E2 < ... < E10 numerically.
func idLess(a, b string) bool {
	var na, nb int
	fmt.Sscanf(a, "E%d", &na)
	fmt.Sscanf(b, "E%d", &nb)
	return na < nb
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAndRender executes one experiment once and writes its tables to
// w, as aligned text or, with markdown, as Markdown. With a non-empty
// csvDir it also writes each table as a CSV file "<ID>_<k>.csv" under
// csvDir (created if needed) and returns the file names written.
func RunAndRender(e Experiment, cfg Config, w io.Writer, markdown bool, csvDir string) ([]string, error) {
	fmt.Fprintf(w, "== %s: %s ==\n\n", e.ID, e.Title)
	tables, err := e.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	for _, t := range tables {
		if markdown {
			err = t.WriteMarkdown(w)
		} else {
			err = t.WriteText(w)
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w)
	}
	if csvDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for k, t := range tables {
		name := fmt.Sprintf("%s_%d.csv", e.ID, k+1)
		f, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return files, err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return files, err
		}
		if err := f.Close(); err != nil {
			return files, err
		}
		files = append(files, name)
	}
	return files, nil
}
