package main

import (
	"strings"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

func TestWriteDOT(t *testing.T) {
	src := rng.New(3)
	g := gen.GNP(src, 15, 0.4)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := lid.RunEvent(s, satisfaction.NewTable(s), simnet.Options{Seed: 1, Latency: simnet.ExponentialLatency(2)})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeDOT(&b, s, res.Matching); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "graph overlay {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("not a DOT document")
	}
	if strings.Count(out, "penwidth") != res.Matching.Size() {
		t.Fatalf("bold edges %d != matching size %d",
			strings.Count(out, "penwidth"), res.Matching.Size())
	}
	if strings.Count(out, " -- ") != s.Graph().NumEdges() {
		t.Fatal("edge count mismatch in DOT")
	}
}
