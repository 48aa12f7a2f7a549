package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"overlaymatch/internal/pref"
	"overlaymatch/internal/workload"
)

// TestWorkloadFormatBuildsTheSharedRecipe: for every row of
// cmd/testdata/instance_flags.json, graphgen -format workload writes
// exactly the system of the row's workload.Synthetic — the system
// overlaysim and overlaynode build for the same flags (their tests
// check the same rows).
func TestWorkloadFormatBuildsTheSharedRecipe(t *testing.T) {
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
	for _, row := range rows {
		fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
		spec := instanceFlags(fs)
		if err := fs.Parse(strings.Fields(row.Args)); err != nil {
			t.Fatalf("%s: %v", row.Args, err)
		}
		var got bytes.Buffer
		if _, err := generate(*spec, "workload", &got, nil); err != nil {
			t.Fatalf("%s: %v", row.Args, err)
		}
		sys, err := row.Spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", row.Spec, err)
		}
		var want bytes.Buffer
		if err := pref.WriteJSON(&want, sys); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: graphgen writes a different system than %+v", row.Args, row.Spec)
		}
	}
}

// TestGenerateFormats: the graph-only formats write the spec's graph,
// and an unknown format is an error.
func TestGenerateFormats(t *testing.T) {
	spec := workload.Synthetic{Topology: "ws", N: 30, B: 2, Metric: "random", Seed: 4}
	want, _, err := spec.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"edgelist", "json"} {
		var buf bytes.Buffer
		g, err := generate(spec, format, &buf, nil)
		if err != nil || g.NumEdges() != want.NumEdges() || buf.Len() == 0 {
			t.Fatalf("%s: %v, %d edges, %d bytes", format, err, g.NumEdges(), buf.Len())
		}
	}
	if _, err := generate(spec, "yaml", new(bytes.Buffer), nil); err == nil {
		t.Fatal("unknown format accepted")
	}
}
