// Command experiments regenerates the validation suite of DESIGN.md §3
// / EXPERIMENTS.md: one experiment per theorem/lemma of the paper plus
// the scaling studies. Each experiment prints one or more tables from
// one fixed configuration; violations of a proven bound abort with a
// non-zero exit. overlaysim is the command that varies the adversary,
// transport, detector, probe spacing or churn feed of a single run.
//
// Examples:
//
//	experiments -run all
//	experiments -run E1,E3 -seed 7
//	experiments -run all -quick -md -out results.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"overlaymatch/internal/experiments"
	"overlaymatch/internal/metrics"
)

func main() {
	var (
		run     = flag.String("run", "all", `comma-separated experiment IDs (e.g. "E1,E5") or "all"`)
		seed    = flag.Uint64("seed", 1, "master seed for all workloads")
		quick   = flag.Bool("quick", false, "reduced sizes (seconds instead of minutes)")
		md      = flag.Bool("md", false, "emit Markdown instead of aligned text")
		out     = flag.String("out", "", "write to file instead of stdout")
		csv     = flag.String("csv", "", "also write each table as CSV into this directory")
		workers = flag.Int("workers", 0, "parallel workers for oracle sweeps and the dense-core builds (0 = GOMAXPROCS; output is bit-identical for any value)")
		list    = flag.Bool("list", false, "list available experiments and exit")
		metOut  = flag.Bool("metrics", false, "print the suite's aggregated metric snapshot to stderr")
		metFmt  = flag.String("metrics-format", "text", "metric snapshot format: text | json | prom")
		manOut  = flag.String("manifest", "", "write a run manifest (params, go version, timings, metrics) as JSON to this file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	switch *metFmt {
	case "text", "json", "prom":
	default:
		fail("unknown -metrics-format %q", *metFmt)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail("memprofile: %v", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
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

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	if *metOut || *manOut != "" {
		cfg.Metrics = metrics.New()
	}
	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Lookup(id)
			if !ok {
				fail("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	manifest := experiments.NewManifest(cfg)
	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		files, err := experiments.RunAndRender(e, cfg, w, *md, *csv)
		if err != nil {
			fail("%v", err)
		}
		if *csv != "" {
			fmt.Fprintf(os.Stderr, "experiments: %s csv: %s\n", e.ID, strings.Join(files, " "))
		}
		manifest.Record(e, time.Since(t0))
		fmt.Fprintf(os.Stderr, "experiments: %s done in %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "experiments: suite done in %v\n", time.Since(start).Round(time.Millisecond))

	if *metOut {
		if err := cfg.Metrics.Snapshot().WriteFormat(os.Stderr, *metFmt); err != nil {
			fail("metrics: %v", err)
		}
	}
	if *manOut != "" {
		f, err := os.Create(*manOut)
		if err != nil {
			fail("%v", err)
		}
		if err := manifest.Write(f, cfg.Metrics); err != nil {
			f.Close()
			fail("manifest: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote manifest to %s\n", *manOut)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
