package faults

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ExploreOptions configures one adversarial sweep.
type ExploreOptions struct {
	// Spec is the adversary swept across seeds.
	Spec Spec
	// BaseSeed is the first trial seed; Count seeds run in total
	// (BaseSeed, BaseSeed+1, ...). Each trial derives its injection
	// stream from the trial seed, so trial i is fully identified by
	// (Spec, BaseSeed+i).
	BaseSeed uint64
	Count    int
	// Workers bounds trial parallelism (0 = 4). Trials are independent;
	// the report is deterministic regardless of worker count.
	Workers int
	// MaxViolations stops the sweep early once this many failures are
	// in hand (0 = 16) — shrinking dominates cost, not finding.
	MaxViolations int
}

func (o ExploreOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 4
}

func (o ExploreOptions) maxViolations() int {
	if o.MaxViolations > 0 {
		return o.MaxViolations
	}
	return 16
}

// injectionSeed derives the injector's stream from a trial seed,
// decorrelating it from the runner's latency stream (both are
// splitmix64; seeding them identically would make every latency draw
// reuse an injection coin flip).
func injectionSeed(seed uint64) uint64 {
	return seed ^ 0x5fa7_15ca_11ed_c0de
}

// Violation is one failing trial, with its injection schedule
// minimized to a locally irreducible subset.
type Violation struct {
	Seed uint64 `json:"seed"`
	Err  string `json:"err"`
	// Events is the minimized schedule; RawEvents counts the schedule
	// as recorded before shrinking.
	Events     []Event `json:"events"`
	RawEvents  int     `json:"raw_events"`
	ShrinkRuns int     `json:"shrink_runs"`
}

// Report summarizes one sweep.
type Report struct {
	Trials     int
	Injections int // probabilistic injections applied across all trials
	// Degraded counts trials that quiesced with permanently lost
	// frames (DegradedError): a bounded-retry transport gave up under
	// an unhealed fault. These are expected under crash-stop
	// adversaries and are kept apart from Violations — the oracle
	// distinguishing "quiesced with abandoned frames" from both clean
	// termination and genuine invariant breakage.
	Degraded   int
	Violations []Violation
}

// Explore sweeps Count seeds of the adversary over the trial, collects
// every invariant violation (errors and recovered panics alike), and
// shrinks each violation's event schedule. Violations come back sorted
// by seed; the report is a pure function of (opts, trial).
func Explore(opts ExploreOptions, trial Trial) Report {
	type outcome struct {
		seed   uint64
		err    error
		events []Event
		sends  int
	}
	var (
		mu         sync.Mutex
		next       int
		rep        Report
		violations []outcome
	)
	nWorkers := opts.workers()
	if nWorkers > opts.Count {
		nWorkers = opts.Count
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= opts.Count || len(violations) >= opts.maxViolations() {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				seed := opts.BaseSeed + uint64(i)
				inj := NewInjector(opts.Spec, injectionSeed(seed))
				err := runTrial(trial, seed, inj)

				var degraded *DegradedError
				if errors.As(err, &degraded) {
					err = nil
				}

				mu.Lock()
				rep.Trials++
				rep.Injections += len(inj.Events())
				if degraded != nil {
					rep.Degraded++
				}
				if err != nil {
					violations = append(violations, outcome{
						seed:   seed,
						err:    err,
						events: append([]Event(nil), inj.Events()...),
						sends:  inj.Sends(),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	sort.Slice(violations, func(i, j int) bool { return violations[i].seed < violations[j].seed })
	if len(violations) > opts.maxViolations() {
		violations = violations[:opts.maxViolations()]
	}
	const maxShrinkRuns = 500 // re-executions per violation
	for _, v := range violations {
		min, runs := Shrink(opts.Spec, v.seed, v.events, trial, maxShrinkRuns)
		// Minimization may land on a different (smaller) failure than
		// the recorded one; report the error the minimized schedule
		// actually produces so a frozen replay file is self-consistent.
		errStr := v.err.Error()
		if minErr := runTrial(trial, v.seed, NewReplayInjector(opts.Spec, min)); minErr != nil {
			errStr = minErr.Error()
		}
		rep.Violations = append(rep.Violations, Violation{
			Seed:       v.seed,
			Err:        errStr,
			Events:     min,
			RawEvents:  len(v.events),
			ShrinkRuns: runs,
		})
	}
	return rep
}

// Shrink minimizes a failing injection schedule by greedy chunked
// removal (delta debugging's ddmin skeleton): try dropping chunks of
// events, halving the chunk size whenever a whole pass removes
// nothing, down to single events. A candidate subset counts only if
// replaying it still fails the trial — re-execution is the oracle, so
// the sequence-number drift that removal causes in later sends is
// self-correcting (a candidate that no longer lines up simply fails to
// reproduce and is rejected). Returns a 1-minimal schedule when the
// run budget allows, or the best found when maxRuns is exhausted.
func Shrink(spec Spec, seed uint64, events []Event, trial Trial, maxRuns int) (min []Event, runs int) {
	cur := append([]Event(nil), events...)
	fails := func(candidate []Event) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		err := runTrial(trial, seed, NewReplayInjector(spec, candidate))
		// A degraded run is not the violation being minimized — a
		// candidate that merely degrades must be rejected, or the
		// shrinker drifts away from the genuine failure.
		var degraded *DegradedError
		if errors.As(err, &degraded) {
			return false
		}
		return err != nil
	}
	// The schedule must reproduce under replay at all before removal
	// means anything (it can fail to: wall-clock schedules drift).
	if !fails(cur) {
		return cur, runs
	}
	for chunk := len(cur); chunk >= 1 && len(cur) > 0 && runs < maxRuns; {
		if chunk > len(cur) {
			chunk = len(cur)
		}
		removedAny := false
		for start := 0; start < len(cur) && runs < maxRuns; {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			candidate := make([]Event, 0, len(cur)-(end-start))
			candidate = append(candidate, cur[:start]...)
			candidate = append(candidate, cur[end:]...)
			if fails(candidate) {
				cur = candidate
				removedAny = true
				// Same start now addresses the next chunk.
			} else {
				start = end
			}
		}
		if !removedAny {
			chunk /= 2
		}
	}
	return cur, runs
}

// Summary renders a one-line human summary of the report.
func (r Report) Summary() string {
	return fmt.Sprintf("trials=%d injections=%d degraded=%d violations=%d",
		r.Trials, r.Injections, r.Degraded, len(r.Violations))
}
