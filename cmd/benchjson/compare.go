package main

import (
	"fmt"
	"sort"
	"strconv"
)

// Absolute slack added on top of the percentage tolerance, so rows
// whose baseline is at or near zero (alloc-free hot paths) don't fail
// on measurement noise of a handful of bytes.
const (
	allocSlack = 2.0
	byteSlack  = 64.0
)

// rowKey identifies a row for baseline matching.
type rowKey struct {
	Name    string
	N       int
	Phase   string
	Workers int
}

// compareRows gates fresh measurements against a baseline file's rows.
// Matching is by (name, n, phase, workers), falling back to workers=0
// so baselines written before the worker-sweep column existed still
// match swept rows. Gated hard (failures):
//
//   - allocs_per_op and b_per_op may not exceed baseline·(1+tol%) plus
//     a small absolute slack — allocation counts are deterministic, so
//     the tolerance only absorbs accounting drift, not real growth;
//   - workload metrics (edges, matched, weight, ...) must be exactly
//     equal — they are bit-deterministic, any drift is a correctness
//     bug, not a perf regression ("workers" is exempt: it names the
//     sweep point, not the workload).
//
// ns_per_op is hardware-dependent and reported as a note; the bench/
// module gates wall clock. Baseline rows with no fresh counterpart
// (and vice versa) are notes, never failures, so -quick runs can gate
// against full baselines.
func compareRows(baseline, fresh []Row, tolPct float64) (failures, notes []string) {
	byKey := make(map[rowKey]Row, len(fresh))
	for _, r := range fresh {
		byKey[rowKey{r.Name, r.N, r.Phase, r.Workers}] = r
	}
	matched := make(map[rowKey]bool, len(fresh))
	for _, old := range baseline {
		key := rowKey{old.Name, old.N, old.Phase, old.Workers}
		cur, ok := byKey[key]
		if !ok {
			notes = append(notes, fmt.Sprintf("baseline row %s not measured (skipped)", keyString(key)))
			continue
		}
		matched[key] = true
		label := keyString(key)
		gate := func(metric string, oldV, newV, slack float64) {
			limit := oldV*(1+tolPct/100) + slack
			if newV > limit {
				failures = append(failures, fmt.Sprintf(
					"%s: %s regressed %.1f -> %.1f (limit %.1f at %.0f%% tolerance)",
					label, metric, oldV, newV, limit, tolPct))
			}
		}
		gate("allocs_per_op", old.AllocsPerOp, cur.AllocsPerOp, allocSlack)
		gate("b_per_op", old.BPerOp, cur.BPerOp, byteSlack)
		if old.NsPerOp > 0 {
			notes = append(notes, fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%, not gated)",
				label, old.NsPerOp, cur.NsPerOp, 100*(cur.NsPerOp-old.NsPerOp)/old.NsPerOp))
		}
		for _, name := range sortedMetricNames(old.Metrics) {
			if name == "workers" {
				continue
			}
			newV, has := cur.Metrics[name]
			if !has {
				failures = append(failures, fmt.Sprintf("%s: metric %q disappeared", label, name))
				continue
			}
			if newV != old.Metrics[name] {
				failures = append(failures, fmt.Sprintf(
					"%s: deterministic metric %q changed %g -> %g — workload drift, not a perf delta",
					label, name, old.Metrics[name], newV))
			}
		}
	}
	for _, r := range fresh {
		key := rowKey{r.Name, r.N, r.Phase, r.Workers}
		if !matched[key] {
			notes = append(notes, fmt.Sprintf("new row %s has no baseline (skipped)", keyString(key)))
		}
	}
	return failures, notes
}

// famKey identifies a row family — a benchmark shape independent of
// the worker-sweep point.
type famKey struct {
	Name  string
	N     int
	Phase string
}

// matchBaseline rewrites fresh rows' lookup keys for pre-sweep
// baselines: when a (name, n, phase) family predates the worker-sweep
// column — the baseline carries only workers=0 rows for it — fresh
// swept rows gate against the workers=0 row. A family whose baseline
// carries explicit worker counts keeps exact matching: a sweep row
// for a worker count the baseline never measured must surface as an
// unmatched note, never silently gate against another count's
// figures. A baseline family mixing workers=0 with explicit counts is
// ambiguous (hand-edited, or merged across sweep eras) and is
// rejected outright rather than guessed at.
func matchBaseline(baseline, fresh []Row) ([]Row, error) {
	zero := make(map[famKey]bool)
	swept := make(map[famKey]bool)
	for _, r := range baseline {
		fam := famKey{r.Name, r.N, r.Phase}
		if r.Workers == 0 {
			zero[fam] = true
		} else {
			swept[fam] = true
		}
	}
	for fam := range zero {
		if swept[fam] {
			return nil, fmt.Errorf("benchjson: baseline family %s/n=%d mixes workers=0 and explicit worker rows — ambiguous baseline, refusing to guess", fam.Name, fam.N)
		}
	}
	out := make([]Row, len(fresh))
	for i, r := range fresh {
		out[i] = r
		fam := famKey{r.Name, r.N, r.Phase}
		if r.Workers != 0 && !swept[fam] && zero[fam] {
			out[i].Workers = 0
		}
	}
	return out, nil
}

func keyString(k rowKey) string {
	s := fmt.Sprintf("%s/n=%d", k.Name, k.N)
	if k.Workers != 0 {
		s += "/w=" + strconv.Itoa(k.Workers)
	}
	if k.Phase != "" && k.Phase != "after" {
		s += "/" + k.Phase
	}
	return s
}

func sortedMetricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
