// Command graphgen generates overlay topologies and writes them in the
// textual edge-list format (or JSON), so experiments can be re-run on
// frozen inputs and external tools can consume the same graphs. The
// instance flags name a workload.Synthetic instance: -format workload
// writes the preference system overlaysim and overlaynode build for the
// same flags, and overlaysim -workload loads it.
//
// Examples:
//
//	graphgen -topology gnp -n 1000 -p 0.01 -seed 7 -out overlay.edges
//	graphgen -topology ba -n 500 -m 3 -format json
//	graphgen -topology geometric -n 200 -radius 0.1 -stats
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/workload"
)

func main() {
	spec := instanceFlags(flag.CommandLine)
	var (
		format   = flag.String("format", "edgelist", "edgelist | json | workload (graph + preferences)")
		out      = flag.String("out", "", "output file (default stdout)")
		showStat = flag.Bool("stats", false, "print degree statistics to stderr")
		spansOut = flag.String("spans", "", "write a span trace of the generation pipeline to this file")
		spansFmt = flag.String("spans-format", "tree", "span trace format: ndjson | chrome | tree")
	)
	flag.Parse()

	switch *spansFmt {
	case "ndjson", "chrome", "tree":
	default:
		fail("unknown -spans-format %q", *spansFmt)
	}
	// Validate before -out is created, so a bad spec leaves no file.
	if err := spec.Validate(); err != nil {
		fail("%v", err)
	}
	// The pipeline trace uses a standalone single-node recorder: no
	// virtual clock exists here, so spans carry time 0 and the Lamport
	// stamps order the phases.
	var rec *obs.Recorder
	if *spansOut != "" {
		rec = obs.NewRecorder(1)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	g, err := generate(*spec, *format, w, rec)
	if err != nil {
		fail("%v", err)
	}

	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			fail("%v", err)
		}
		if err := rec.WriteFormat(f, *spansFmt); err != nil {
			f.Close()
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "graphgen: wrote span trace (%s, %d events) to %s\n",
			*spansFmt, rec.Len(), *spansOut)
	}

	if *showStat {
		comps := g.Components()
		fmt.Fprintf(os.Stderr, "graphgen: n=%d m=%d avg-degree=%.2f min=%d max=%d components=%d\n",
			g.NumNodes(), g.NumEdges(), g.AvgDegree(), g.MinDegree(), g.MaxDegree(), len(comps))
	}
}

// instanceFlags binds the instance flags, with every shape flag.
func instanceFlags(fs *flag.FlagSet) *workload.Synthetic {
	return workload.BindFlags(fs, 100, "p", "radius", "m", "k", "beta", "rows", "edges")
}

// generate draws spec's graph and writes it to w in format — for
// workload, ranked by the spec's metric — tracing the phases on rec
// (nil records nothing).
func generate(spec workload.Synthetic, format string, w io.Writer, rec *obs.Recorder) (*graph.Graph, error) {
	phase := func(kind, detail string) obs.SpanID {
		return rec.OpenSpan(0, kind, detail, 0)
	}
	genSpan := phase("graphgen.generate", fmt.Sprintf("topology=%s n=%d seed=%d", spec.Topology, spec.N, spec.Seed))
	g, coords, err := spec.Graph()
	if err != nil {
		return nil, err
	}
	rec.CloseSpan(0, genSpan, fmt.Sprintf("m=%d", g.NumEdges()), 0)

	writeSpan := phase("graphgen.write", "format="+format)
	switch format {
	case "edgelist":
		err = graph.WriteEdgeList(w, g)
	case "json":
		err = json.NewEncoder(w).Encode(g)
	case "workload":
		prefSpan := phase("graphgen.prefs", fmt.Sprintf("metric=%s b=%d", spec.Metric, spec.B))
		var sys *pref.System
		if sys, err = spec.System(g, coords); err != nil {
			return nil, err
		}
		rec.CloseSpan(0, prefSpan, "built", 0)
		err = pref.WriteJSON(w, sys)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	rec.CloseSpan(0, writeSpan, "", 0)
	return g, err
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
