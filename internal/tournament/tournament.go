// Package tournament pits matching algorithms against each other on
// the production-shaped scenario suite of internal/workload: a
// scenario × algorithm bracket in the spirit of Lebedev–Mathieu et
// al.'s matching-theory analysis of p2p designs. Every cell runs one
// contender on one generated instance under the deterministic event
// simulator and scores it with the stability yardsticks of PR 6's
// telemetry plane:
//
//	weight frac    matched eq.-9 weight / the LIC optimum's weight
//	blocking pairs under the eq.-9 weight order, via obs.Prober
//	rounds-to-ε    first probe time with blocking pairs ≤ ε·|E|
//	msgs / bytes   cumulative network cost at termination, in messages
//	               and encoded frame bytes (wire.go)
//
// Contenders implement Algorithm; the built-ins are LID (the paper's
// Algorithm 1), a distributed Gale–Shapley-style propose/accept loop
// proposing in the same shared weight order, and a Barenboim–Oren
// one-round backup-placement heuristic (propose to the top-quota
// prefix, keep mutual proposals, stop). Everything is deterministic
// given (Spec, seed) and bit-identical for any worker count.
package tournament

import (
	"fmt"
	"sort"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/workload"
)

// Options parameterizes one cell run.
type Options struct {
	// Seed drives the simnet schedule (and, through RunBracket, the
	// instance build).
	Seed uint64
	// Workers parallelizes the deterministic builds (preference lists,
	// satisfaction table); 0 means 1. Output is bit-identical for any
	// value.
	Workers int
	// ProbeInterval is the virtual-time spacing of the stability
	// probes; 0 means 1 (one probe per unit-latency round).
	ProbeInterval float64

	// Faults, when non-zero, is the link-level adversary every cell
	// runs under (crash windows, drops, ...); FaultsSeed seeds the
	// injection stream. Each cell gets its own injector, so the
	// adversary's coin flips are identical across contenders.
	Faults     faults.Spec
	FaultsSeed uint64
	// Stack names the layers every contender's handlers run under. A
	// run whose Faults can lose messages needs the reliable transport
	// (a healing crash window still drops everything in flight); the
	// faulted axis stacks it with adaptive RFC-6298 estimation.
	Stack stack.Spec
}

func (o Options) interval() float64 {
	if o.ProbeInterval > 0 {
		return o.ProbeInterval
	}
	return 1
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 1
}

// runtime returns the event runtime of one cell: the cell's seed and a
// fresh fault injector (none when no faults are configured, leaving
// the zero-spec path byte-identical).
func (o Options) runtime() simnet.Runtime {
	opts := simnet.Options{Seed: o.Seed}
	if !o.Faults.IsZero() {
		opts.Policy = faults.NewInjector(o.Faults, o.FaultsSeed)
	}
	return simnet.Event(opts)
}

// Algorithm is one tournament contender. Run executes the contender
// on the instance through the run recipe (stack.Run) with the cell's
// runtime and options, so every cell's stability columns come from
// the same prober.
type Algorithm interface {
	Name() string
	Run(s *pref.System, tbl *satisfaction.Table, opts Options) (stack.Result, error)
}

// DefaultAlgorithms returns the bracket's standard contenders in
// canonical order: LID, distributed Gale–Shapley, one-round backup
// placement.
func DefaultAlgorithms() []Algorithm {
	return []Algorithm{LID{}, GaleShapley{}, BackupPlacement{}}
}

// FaultTolerantAlgorithms returns the contenders that survive the
// faulted axis: LID (whose replacement waves are idempotent under the
// reliable transport's at-least-once retransmission) and backup
// placement (one round, order-insensitive). Gale–Shapley is excluded —
// its FSM's crossing rules require per-link FIFO delivery, which
// retransmission after a crash window does not preserve.
func FaultTolerantAlgorithms() []Algorithm {
	return []Algorithm{LID{}, BackupPlacement{}}
}

// Cell is one scored (scenario, algorithm) bracket entry.
type Cell struct {
	Scenario  string `json:"scenario"`
	Spec      string `json:"spec"`
	Algorithm string `json:"algorithm"`
	Seed      uint64 `json:"seed"`
	N         int    `json:"n"`
	Edges     int    `json:"edges"`
	Rank      int    `json:"rank"`
	// WeightFrac is MatchedWeight / LICWeight (1 when both are 0).
	WeightFrac    float64 `json:"weight_frac"`
	MatchedWeight float64 `json:"matched_weight"`
	LICWeight     float64 `json:"lic_weight"`
	Matched       int     `json:"matched_edges"`
	BlockingPairs int     `json:"blocking_pairs"`
	Unmatched     int     `json:"unmatched_nodes"`
	// RoundsToEps maps obs.EpsKey(ε) to the first probe time with
	// blocking pairs ≤ ε·|E| (-1 = never), for the obs.Epsilons ladder.
	RoundsToEps map[string]float64 `json:"rounds_to_eps"`
	FinalTime   float64            `json:"final_time"`
	Msgs        int64              `json:"msgs"`
	Bytes       int64              `json:"bytes"`
	MsgsByKind  map[string]int     `json:"msgs_by_kind"`
}

// RunCell executes one contender on one built instance and scores it.
// The returned result carries the raw matching and prober for callers
// that verify beyond the scores (the equivalence guards).
func RunCell(inst *workload.Instance, alg Algorithm, opts Options) (Cell, stack.Result, error) {
	sys := inst.System
	g := sys.Graph()
	tbl := satisfaction.NewTableParallel(sys, opts.workers())

	out, err := alg.Run(sys, tbl, opts)
	if err != nil {
		return Cell{}, out, fmt.Errorf("tournament: %s on %s: %w", alg.Name(), inst.Spec, err)
	}
	if err := out.Matching.Validate(sys); err != nil {
		return Cell{}, out, fmt.Errorf("tournament: %s on %s produced an invalid matching: %w", alg.Name(), inst.Spec, err)
	}
	if len(out.Prober.Curve()) == 0 {
		return Cell{}, out, fmt.Errorf("tournament: %s recorded no probes", alg.Name())
	}

	cell := Cell{
		Scenario:      inst.Spec.Family,
		Spec:          inst.Spec.String(),
		Algorithm:     alg.Name(),
		Seed:          opts.Seed,
		N:             g.NumNodes(),
		Edges:         g.NumEdges(),
		MatchedWeight: out.Matching.Weight(sys),
		LICWeight:     out.Prober.OptWeight(),
		Matched:       out.Matching.Size(),
		RoundsToEps:   out.Prober.RoundsToEps(nil),
		FinalTime:     out.Stats.FinalTime,
		MsgsByKind:    out.Stats.SentByKind,
	}
	if cell.LICWeight > 0 {
		cell.WeightFrac = cell.MatchedWeight / cell.LICWeight
	} else {
		cell.WeightFrac = 1
	}
	last := out.Prober.Last()
	cell.BlockingPairs, cell.Unmatched = last.BlockingPairs, last.UnmatchedNodes
	cell.Msgs, cell.Bytes = last.Msgs, last.Bytes
	return cell, out, nil
}

// ScenarioResult is one bracket row: the resolved scenario spec and
// its ranked cells (rank 1 first).
type ScenarioResult struct {
	Spec  workload.Spec
	Cells []Cell
}

// RunBracket runs every algorithm on every scenario and ranks each
// scenario's cells: higher weight fraction first, then fewer blocking
// pairs, then fewer messages, then name — a deterministic strict
// order. The instance seed is derived from opts.Seed and the canonical
// spec string, so a bracket cell and a standalone replay of the same
// spec agree.
func RunBracket(specs []workload.Spec, algs []Algorithm, opts Options) ([]ScenarioResult, error) {
	var results []ScenarioResult
	for _, spec := range specs {
		inst, err := workload.Build(spec, InstanceSeed(opts.Seed, spec), opts.workers())
		if err != nil {
			return nil, err
		}
		var cells []Cell
		for _, alg := range algs {
			cell, _, err := RunCell(inst, alg, opts)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
		rankCells(cells)
		results = append(results, ScenarioResult{Spec: inst.Spec, Cells: cells})
	}
	return results, nil
}

// InstanceSeed derives the workload seed of one bracket scenario from
// the master seed and the canonical spec string (FNV-1a), so adding or
// reordering scenarios never reshuffles the others' instances.
func InstanceSeed(seed uint64, spec workload.Spec) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(spec.String()) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return seed ^ h
}

// rankCells sorts cells into ranked order and stamps Rank 1..k.
func rankCells(cells []Cell) {
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.WeightFrac != b.WeightFrac {
			return a.WeightFrac > b.WeightFrac
		}
		if a.BlockingPairs != b.BlockingPairs {
			return a.BlockingPairs < b.BlockingPairs
		}
		if a.Msgs != b.Msgs {
			return a.Msgs < b.Msgs
		}
		return a.Algorithm < b.Algorithm
	})
	for i := range cells {
		cells[i].Rank = i + 1
	}
}
