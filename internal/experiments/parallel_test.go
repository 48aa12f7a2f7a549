package experiments

import (
	"strings"
	"testing"

	"overlaymatch/internal/stats"
)

// TestParallelDeterminism: the oracle experiments must produce
// bit-identical tables for every worker count.
func TestParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		cfg := quickCfg()
		cfg.Workers = workers
		var b strings.Builder
		for _, run := range []func(Config) ([]*stats.Table, error){E1LICWeightRatio, E3SatisfactionRatio} {
			tables, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tbl := range tables {
				if err := tbl.WriteCSV(&b); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b.String()
	}
	serial := render(1)
	for _, w := range []int{2, 4, 0} {
		if render(w) != serial {
			t.Fatalf("workers=%d output differs from serial", w)
		}
	}
}
