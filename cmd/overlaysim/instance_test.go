package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"overlaymatch/internal/workload"
)

// TestInstanceFlagsBuildTheSharedRecipe: every row of
// cmd/testdata/instance_flags.json parses, through overlaysim's
// instance flags, into exactly the row's workload.Synthetic, whose
// Build is the system overlaysim runs. graphgen -format workload and
// overlaynode check the same rows, so the three tools build identical
// systems for the same flags. Only the -edges row is not overlaysim's.
func TestInstanceFlagsBuildTheSharedRecipe(t *testing.T) {
	data, err := os.ReadFile("../testdata/instance_flags.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Args string
		Spec workload.Synthetic
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, row := range rows {
		fs := flag.NewFlagSet("overlaysim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		spec := instanceFlags(fs)
		if err := fs.Parse(strings.Fields(row.Args)); err != nil {
			rejected++
			continue
		}
		if *spec != row.Spec {
			t.Errorf("%s: overlaysim builds %+v, not %+v", row.Args, *spec, row.Spec)
		}
	}
	if rejected != 1 {
		t.Fatalf("%d rows name a flag overlaysim lacks, want 1 (-edges)", rejected)
	}
}
