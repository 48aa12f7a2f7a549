package experiments

import (
	"fmt"
	"sort"

	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// e19Families are the workload families of the churn-intensity sweep:
// swarm and geo exercise join/leave churn on production-shaped
// topologies; drift additionally replays its preference epochs as
// rerank events through the same engine queue, so membership and
// preference churn coalesce into shared repair epochs.
var e19Families = []string{"swarm", "geo", "drift"}

// e19Cell is the worker-identity fingerprint of one (family, budget)
// cell: the full epoch-record stream plus the final matching and its
// weight.
type e19Cell struct {
	Family  string                `json:"family"`
	Budget  string                `json:"budget"`
	Records []dynamic.EpochRecord `json:"records"`
	Edges   [][2]int              `json:"edges"`
	Weight  float64               `json:"weight"`
}

// e19Budget is one row configuration of the repair-budget sweep.
type e19Budget struct {
	label  string
	rounds int // EngineOptions.RepairRounds (0 = full)
	shed   int // EngineOptions.ShedDepth (0 = never shed)
}

// e19Budgets are the rows of the repair-budget sweep: the full budget,
// three truncated budgets and an overload row that sheds at depth 2.
var e19Budgets = []e19Budget{
	{label: "full"},
	{label: "k=1", rounds: 1},
	{label: "k=2", rounds: 2},
	{label: "k=4", rounds: 4},
	{label: "shed=2", shed: 2},
}

// E19ChurnEngine: the churn-survival engine under sustained churn — a
// churn-intensity × repair-budget sweep over internal/dynamic's epoch
// engine. Every cell streams the same seeded membership feed (plus
// drift's rerank epochs for the drift family) through the update
// queue and scores the epochs it produced:
//
//	p99 lat     99th-percentile virtual repair latency per epoch
//	region      mean / max bounded-repair region size (nodes touched)
//	deferred    certified blocking-edge bound left after the last epoch
//	blocking    measured blocking edges at the end (MeasureStability)
//	w/inh-LIC   final weight over the live-LIC weight under the
//	            inherited order — the degradation the budget bought
//
// Hard gates, enforced as errors:
//
//   - Full budget converges exactly: zero deferred, zero blocking, and
//     the final matching equals Overlay.LiveLICInherited — the unique
//     stable matching of the live edge set under the inherited weight
//     order (PR 3's equivalence, replayed through the epoch queue).
//   - Every truncated epoch keeps the certified bound: measured
//     blocking edges ≤ the deferred count, on every record of every
//     cell (the Floréen-style degradation bound of DESIGN.md §11).
//   - The overload row actually sheds (TotalSheds > 0) and still
//     yields a valid matching: shedding drops repair work, never
//     correctness.
//   - Every cell is byte-identical across worker counts (workerSweep).
func E19ChurnEngine(cfg Config) ([]*stats.Table, error) {
	n := cfg.pick(48, 192)
	churn := dynamic.ChurnSpec{
		Events:    cfg.pick(40, 160),
		LeaveProb: 0.55,
		MinAlive:  n / 4,
		Rate:      4,
	}
	table := stats.NewTable(fmt.Sprintf("E19: churn-survival engine, %s (family x repair budget)", churn),
		"family", "budget", "epochs", "retries", "sheds", "p99 lat", "mean region", "max region",
		"deferred", "blocking", "w/inh-LIC", "workers")

	for _, family := range e19Families {
		spec, err := workload.Parse(fmt.Sprintf("%s:n=%d", family, n))
		if err != nil {
			return nil, fmt.Errorf("E19 %s: %w", family, err)
		}
		for _, b := range e19Budgets {
			type repaired struct {
				cell e19Cell
				eng  *dynamic.Engine
			}
			run, err := sameAtEveryWorkerCount(fmt.Sprintf("E19 %s/%s", family, b.label), func(workers int) (repaired, any, error) {
				c, e, err := runE19Cell(cfg, spec, b, churn, workers)
				return repaired{c, e}, c, err
			})
			if err != nil {
				return nil, err
			}
			row, err := e19Score(family, b, run.cell, run.eng)
			if err != nil {
				return nil, err
			}
			table.AddRowf(row...)
		}
	}
	return []*stats.Table{table}, nil
}

// runE19Cell streams one cell's schedule through a fresh engine.
func runE19Cell(cfg Config, spec workload.Spec, b e19Budget, churn dynamic.ChurnSpec, workers int) (e19Cell, *dynamic.Engine, error) {
	inst, err := workload.Build(spec, cfg.Seed+19, workers)
	if err != nil {
		return e19Cell{}, nil, err
	}
	sys := inst.System
	if len(inst.Epochs) > 0 {
		// Drift starts at the first epoch and reaches System through
		// rerank events, so preference churn flows through the queue.
		sys = inst.Epochs[0]
	}
	eng, err := dynamic.NewEngine(sys, dynamic.EngineOptions{
		RepairRounds:     b.rounds,
		ShedDepth:        b.shed,
		Workers:          workers,
		MeasureStability: true,
	})
	if err != nil {
		return e19Cell{}, nil, err
	}
	n := sys.Graph().NumNodes()
	evs, err := churn.Schedule(n, cfg.Seed+19)
	if err != nil {
		return e19Cell{}, nil, err
	}
	if len(inst.Epochs) > 1 {
		evs = dynamic.MergeSchedules(evs, dynamic.DriftSchedule(inst.Epochs, 2.0, 3.0))
	}
	if _, err := dynamic.RunSchedule(eng, evs); err != nil {
		return e19Cell{}, nil, err
	}
	o := eng.Overlay()
	if err := o.Validate(); err != nil {
		return e19Cell{}, nil, fmt.Errorf("invalid matching after drain: %w", err)
	}
	cell := e19Cell{
		Family:  spec.Family,
		Budget:  b.label,
		Records: eng.Records(),
		Weight:  o.Matching().Weight(o.System()),
	}
	for _, e := range o.System().Graph().Edges() {
		if o.Matching().Has(e.U, e.V) {
			cell.Edges = append(cell.Edges, [2]int{int(e.U), int(e.V)})
		}
	}
	return cell, eng, nil
}

// e19Score gates one cell and renders its table row.
func e19Score(family string, b e19Budget, cell e19Cell, eng *dynamic.Engine) ([]interface{}, error) {
	o := eng.Overlay()
	var (
		latencies      []float64
		regionSum      int
		maxRegion      int
		retries, sheds int
		lastDeferred   int
		lastBlocking   int
	)
	for _, r := range cell.Records {
		latencies = append(latencies, r.Latency())
		regionSum += r.Region
		maxRegion = max(maxRegion, r.Region)
		retries += r.Retries
		if r.Shed {
			sheds++
		}
		if r.Blocking < 0 {
			return nil, fmt.Errorf("E19 %s/%s: epoch %d missing stability measurement", family, b.label, r.Epoch)
		}
		if r.Blocking > r.Deferred {
			return nil, fmt.Errorf("E19 %s/%s: epoch %d has %d blocking edges above its certified bound %d",
				family, b.label, r.Epoch, r.Blocking, r.Deferred)
		}
		lastDeferred, lastBlocking = r.Deferred, r.Blocking
	}
	if len(cell.Records) == 0 {
		return nil, fmt.Errorf("E19 %s/%s: schedule produced no epochs", family, b.label)
	}

	inherited := o.LiveLICInherited()
	inhWeight := inherited.Weight(o.System())
	degradation := 1.0
	if inhWeight > 0 {
		degradation = cell.Weight / inhWeight
	}
	if b.rounds == 0 && b.shed == 0 {
		if lastDeferred != 0 || lastBlocking != 0 {
			return nil, fmt.Errorf("E19 %s/full: ended with deferred=%d blocking=%d — full budget must converge",
				family, lastDeferred, lastBlocking)
		}
		if !o.Matching().Equal(inherited) {
			return nil, fmt.Errorf("E19 %s/full: final matching differs from the live inherited LIC", family)
		}
	}
	if b.shed > 0 && eng.TotalSheds() == 0 {
		return nil, fmt.Errorf("E19 %s/%s: overload row never shed — threshold too high for the feed", family, b.label)
	}

	sort.Float64s(latencies)
	meanRegion := float64(regionSum) / float64(len(cell.Records))
	return []interface{}{
		family, b.label, len(cell.Records), retries, sheds,
		fmt.Sprintf("%.2f", stats.Percentile(latencies, 0.99)),
		fmt.Sprintf("%.1f", meanRegion), maxRegion,
		lastDeferred, lastBlocking,
		fmt.Sprintf("%.4f", degradation),
		fmt.Sprintf("identical x%d", len(workerSweep)),
	}, nil
}
