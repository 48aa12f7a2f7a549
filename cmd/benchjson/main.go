// Command benchjson runs the core data-layer benchmarks with fixed
// seeds and fixed iteration counts and writes the results as JSON rows
// (ns/op, B/op, allocs/op plus headline metrics). It seeds the repo's
// persisted perf trajectory: `make bench-json` regenerates the "after"
// rows of BENCH_PR24.json. Rows are tagged with a phase
// ("before"/"after") so a representation change can commit its own
// measured payoff next to the baseline it replaced.
//
// Workloads are the standard benchmark family (GNP at average degree 8,
// seeded random metric, uniform quota 3); seeds and iteration counts
// are fixed in code, so the workload columns (nodes, edges, matched,
// weight) are bit-deterministic across runs and machines — only the
// ns/op column moves with the hardware.
//
// Regression-gate mode: -compare old.json measures fresh rows and
// gates them against the baseline file instead of writing output —
// allocation figures within -tolerance percent, workload metrics
// exactly equal, ns/op report-only (see compareRows; wall clock is
// gated by the bench/ module). Non-zero exit on any regression;
// `make bench-check` wires this into CI. -quick drops the slowest
// tiers so the gate runs in seconds. The *Par rows are measured at
// each count of workerSweep (their workload output must be identical
// at every count).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/tournament"
	"overlaymatch/internal/workload"
)

// Row is one benchmark measurement. Workers is 0 for serial rows and
// the sweep point for *Par rows (omitted in JSON when 0, keeping
// pre-sweep baseline files parseable under the same schema).
type Row struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	Phase       string             `json:"phase"`
	Workers     int                `json:"workers,omitempty"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the persisted trajectory.
type File struct {
	Command string `json:"command"`
	Note    string `json:"note"`
	Rows    []Row  `json:"rows"`
}

// gatedFile is the baseline `make bench-check` gates against and the
// default output `make bench-json` rewrites.
const gatedFile = "BENCH_PR24.json"

// workerSweep is the worker counts the *Par rows are measured at. It
// is the sweep gatedFile was written with, so a gate run measures
// every *Par row the baseline holds.
var workerSweep = []int{1, 2, 4}

// benchSystem is the standard benchmark workload: the G(n,p) instance
// of workload.OracleGNP at average degree 8.
func benchSystem(seed uint64, n int, bq int) *pref.System {
	s, err := workload.OracleGNP(seed, n, 8.0/float64(n-1), bq)
	if err != nil {
		panic(err)
	}
	return s
}

// measure times iters runs of fn after one untimed warm-up, reporting
// per-op wall clock and allocation figures from runtime.MemStats.
func measure(iters int, fn func()) (nsPerOp, bPerOp, allocsPerOp float64) {
	fn() // warm-up: lazily-built caches must not bill the first iteration
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	dt := time.Since(start)
	runtime.ReadMemStats(&m1)
	fi := float64(iters)
	return float64(dt.Nanoseconds()) / fi,
		float64(m1.TotalAlloc-m0.TotalAlloc) / fi,
		float64(m1.Mallocs-m0.Mallocs) / fi
}

// runBenchmarks measures the full row set. quick drops the n=100000
// tier and the larger LICLiteral size so the regression gate runs in
// seconds.
func runBenchmarks(phase string, quick bool) []Row {
	var rows []Row
	add := func(name string, n, workers, iters int, metrics map[string]float64, fn func()) {
		ns, b, allocs := measure(iters, fn)
		rows = append(rows, Row{
			Name: name, N: n, Phase: phase, Workers: workers, Iters: iters,
			NsPerOp: ns, BPerOp: b, AllocsPerOp: allocs, Metrics: metrics,
		})
		tag := name
		if workers != 0 {
			tag = fmt.Sprintf("%s/w=%d", name, workers)
		}
		fmt.Printf("%-15s n=%-7d %12.0f ns/op %14.0f B/op %10.1f allocs/op\n",
			tag, n, ns, b, allocs)
	}

	// Table construction and the centralized scan, the two headline
	// targets, at three scales — each serial and with the deterministic
	// parallel layer (the *Par rows; any observable divergence between
	// the two is a hard failure, not a benchmark artifact).
	sizes := []struct{ n, itersTable, itersLIC int }{
		{1_000, 200, 200},
		{10_000, 20, 20},
		{100_000, 5, 5},
	}
	if quick {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		s := benchSystem(uint64(1000+sz.n), sz.n, 3)
		g := s.Graph()
		tbl := satisfaction.NewTable(s)
		m := matching.LIC(s, tbl)
		met := map[string]float64{
			"edges":   float64(g.NumEdges()),
			"matched": float64(m.Size()),
			"weight":  m.Weight(s),
		}
		add("NewTable", sz.n, 0, sz.itersTable, met, func() {
			_ = satisfaction.NewTable(s)
		})
		add("LIC", sz.n, 0, sz.itersLIC, met, func() {
			_ = matching.LIC(s, tbl)
		})
		// The LIC radix sort in isolation (the PR-4 tentpole's parallel
		// target), on the real order keys of this workload.
		ids := make([]graph.EdgeID, g.NumEdges())
		sortMet := map[string]float64{"edges": float64(g.NumEdges())}
		add("LICSort", sz.n, 0, sz.itersLIC, sortMet, func() {
			for i := range ids {
				ids[i] = graph.EdgeID(i)
			}
			matching.SortEdgeIDs(ids, tbl.OrderKeys(), 1)
		})
		for _, workers := range workerSweep {
			metPar := map[string]float64{
				"edges":   float64(g.NumEdges()),
				"matched": float64(m.Size()),
				"weight":  m.Weight(s),
				"workers": float64(workers),
			}
			add("NewTablePar", sz.n, workers, sz.itersTable, metPar, func() {
				_ = satisfaction.NewTableParallel(s, workers)
			})
			add("LICPar", sz.n, workers, sz.itersLIC, metPar, func() {
				if got := matching.LICParallel(s, tbl, workers); got.Size() != m.Size() {
					panic("benchjson: LICParallel diverged from LIC")
				}
			})
			sortMetPar := map[string]float64{
				"edges":   float64(g.NumEdges()),
				"workers": float64(workers),
			}
			add("LICSortPar", sz.n, workers, sz.itersLIC, sortMetPar, func() {
				for i := range ids {
					ids[i] = graph.EdgeID(i)
				}
				matching.SortEdgeIDs(ids, tbl.OrderKeys(), workers)
			})
		}
		add("PrefBuild", sz.n, 0, max(sz.itersLIC/5, 1), map[string]float64{
			"edges": float64(g.NumEdges()),
		}, func() {
			if _, err := pref.Build(g, pref.NewRandomMetric(rng.New(uint64(3000+sz.n))), pref.UniformQuota(3)); err != nil {
				panic(err)
			}
		})
	}

	// The tournament scoring path (the PR-7 surface): one full bracket
	// over the default scenario suite — instance build, LIC reference,
	// all three probed contenders, ranking. The workload metrics pin the
	// scored outcome (cell count, cumulative messages, matched weight
	// summed over every cell), so any drift in a contender or in the
	// scoring shows up as a metrics failure in the gate, not just a
	// timing delta.
	tSizes := []struct{ n, iters int }{
		{64, 5},
		{256, 2},
	}
	if quick {
		tSizes = tSizes[:1]
	}
	for _, sz := range tSizes {
		specs := workload.DefaultSuite(sz.n)
		algs := tournament.DefaultAlgorithms()
		opts := tournament.Options{Seed: 7}
		ref, err := tournament.RunBracket(specs, algs, opts)
		if err != nil {
			panic(err)
		}
		met := map[string]float64{"scenarios": float64(len(ref))}
		for _, r := range ref {
			for _, c := range r.Cells {
				met["cells"]++
				met["msgs"] += float64(c.Msgs)
				met["weight"] += c.MatchedWeight
			}
		}
		add("Tournament", sz.n, 0, sz.iters, met, func() {
			if _, err := tournament.RunBracket(specs, algs, opts); err != nil {
				panic(err)
			}
		})
	}

	// The churn-survival engine (the PR-8 surface): a fixed membership
	// feed drained through the epoch queue at three budgets — full
	// repair, one-round truncation, and an overload-shedding
	// configuration. The workload metrics pin the engine's outcome
	// (epoch/retry/shed counts, the certified deferred bound, matched
	// size and weight), so a behavioural drift in batching, bounded
	// repair, or shedding fails the gate rather than hiding in timing.
	cSizes := []struct{ n, iters int }{
		{1_000, 10},
		{10_000, 2},
	}
	if quick {
		cSizes = cSizes[:1]
	}
	churnBudgets := []struct {
		label        string
		rounds, shed int
	}{
		{"ChurnFull", 0, 0},
		{"ChurnK1", 1, 0},
		{"ChurnShed", 0, 2},
	}
	for _, sz := range cSizes {
		s := benchSystem(uint64(4000+sz.n), sz.n, 3)
		feed := dynamic.ChurnSpec{Events: 200, LeaveProb: 0.55, MinAlive: sz.n / 4, Rate: 4}
		for _, b := range churnBudgets {
			run := func() *dynamic.Engine {
				eng, err := dynamic.NewEngine(s, dynamic.EngineOptions{
					RepairRounds: b.rounds, ShedDepth: b.shed,
				})
				if err != nil {
					panic(err)
				}
				if _, err := dynamic.RunEngineChurn(eng, feed, uint64(8000+sz.n)); err != nil {
					panic(err)
				}
				return eng
			}
			eng := run()
			o := eng.Overlay()
			met := map[string]float64{
				"epochs":   float64(len(eng.Records())),
				"retries":  float64(eng.TotalRetries()),
				"sheds":    float64(eng.TotalSheds()),
				"deferred": float64(eng.DeferredBound()),
				"matched":  float64(o.Matching().Size()),
				"weight":   o.Matching().Weight(o.System()),
			}
			add(b.label, sz.n, 0, sz.iters, met, func() { run() })
		}
	}

	// The admission scheduler (the PR-10 surface): one LID workload run
	// canonically and with greedy heaviest-frontier admission. The
	// workload metrics pin both the outcome (matched/weight — identical
	// either way, LID ≡ LIC) and the scheduling win itself (msgs,
	// rounds), so losing the greedy message savings fails the gate as a
	// deterministic-metrics drift, not a timing delta.
	schedSizes := []struct{ n, iters int }{
		{1_000, 5},
		{4_000, 2},
	}
	if quick {
		schedSizes = schedSizes[:1]
	}
	for _, sz := range schedSizes {
		s := benchSystem(uint64(5000+sz.n), sz.n, 3)
		tbl := satisfaction.NewTable(s)
		for _, sched := range []struct {
			label string
			spec  lid.SchedulerSpec
		}{
			{"LIDCanonical", lid.SchedulerSpec{Kind: lid.SchedCanonical}},
			{"LIDGreedy", lid.SchedulerSpec{Kind: lid.SchedGreedy}},
		} {
			spec := sched.spec
			run := func() lid.Result {
				res, err := lid.Run(s, tbl, simnet.Event(simnet.Options{Seed: 11}), lid.RunOptions{Scheduler: spec})
				if err != nil {
					panic(err)
				}
				return res
			}
			res := run()
			met := map[string]float64{
				"msgs":    float64(res.Stats.TotalSent()),
				"prop":    float64(res.PropMessages),
				"rej":     float64(res.RejMessages),
				"rounds":  res.Stats.FinalTime,
				"matched": float64(res.Matching.Size()),
				"weight":  res.Matching.Weight(s),
			}
			add(sched.label, sz.n, 0, sz.iters, met, func() { run() })
		}
	}

	// The literal Algorithm-2 loop, whose pool handling is the
	// complexity-class target (O(m²) rescans → O(m·Δ) incremental).
	literal := []struct{ n, iters int }{
		{1_000, 5},
		{3_000, 2},
	}
	if quick {
		literal = literal[:1]
	}
	for _, sz := range literal {
		s := benchSystem(uint64(2000+sz.n), sz.n, 3)
		tbl := satisfaction.NewTable(s)
		m := matching.LIC(s, tbl)
		met := map[string]float64{
			"edges":   float64(s.Graph().NumEdges()),
			"matched": float64(m.Size()),
		}
		add("LICLiteral", sz.n, 0, sz.iters, met, func() {
			got := matching.LICLiteral(s, tbl, rng.New(7))
			if !got.Equal(m) {
				panic("benchjson: LICLiteral diverged from LIC")
			}
		})
	}
	return rows
}

func main() {
	out := flag.String("out", gatedFile, "output file")
	phase := flag.String("phase", "after", "phase tag for the emitted rows (before|after)")
	merge := flag.Bool("merge", true, "keep rows of other phases already in the output file")
	quick := flag.Bool("quick", false, "drop the slowest tiers (n=100000 and LICLiteral n=3000)")
	compare := flag.String("compare", "", "baseline JSON to gate fresh measurements against instead of writing -out; exits 1 on regression")
	tolerance := flag.Float64("tolerance", 25, "allowed regression of allocs_per_op and b_per_op vs -compare, in percent")
	flag.Parse()

	rows := runBenchmarks(*phase, *quick)

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		var baseline File
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *compare, err)
			os.Exit(2)
		}
		adjusted, err := matchBaseline(baseline.Rows, rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *compare, err)
			os.Exit(2)
		}
		failures, notes := compareRows(baseline.Rows, adjusted, *tolerance)
		for _, n := range notes {
			fmt.Printf("note: %s\n", n)
		}
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s\n", len(failures), *compare)
			os.Exit(1)
		}
		fmt.Printf("benchjson: no regressions vs %s (%d fresh rows)\n", *compare, len(rows))
		return
	}

	file := File{
		Command: "go run ./cmd/benchjson (make bench-json)",
		Note:    "fixed seeds and iteration counts; workload columns are deterministic, ns/op is hardware-dependent",
	}
	if *merge {
		if prev, err := os.ReadFile(*out); err == nil {
			var old File
			if err := json.Unmarshal(prev, &old); err == nil {
				for _, r := range old.Rows {
					if r.Phase != *phase {
						file.Rows = append(file.Rows, r)
					}
				}
			}
		}
	}
	file.Rows = append(file.Rows, rows...)
	sort.SliceStable(file.Rows, func(i, j int) bool {
		a, b := file.Rows[i], file.Rows[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.N != b.N {
			return a.N < b.N
		}
		if a.Workers != b.Workers {
			return a.Workers < b.Workers
		}
		return a.Phase < b.Phase // "after" sorts before "before"
	})
	buf, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		panic(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("wrote %s (%d rows)\n", *out, len(file.Rows))
}
