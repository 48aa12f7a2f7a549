package dynamic

import (
	"fmt"
	"sort"
	"strings"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/kv"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
)

// ChurnSpec is the replayable grammar for a synthetic membership feed,
// in the style of faults.Spec / workload.Spec:
//
//		events=200,leave=0.5,minalive=8,rate=2
//
//	  - events: number of membership events to generate (required > 0)
//	  - leave: probability an event is a leave when both directions are
//	    possible (default 0.5)
//	  - minalive: leaves are suppressed at or below this population
//	    (default 2)
//	  - rate: mean events per unit of virtual time; inter-arrival gaps
//	    are exponential, so the feed is a Poisson process (default 1)
//
// The empty string and "off" parse to the zero spec (no churn).
// ParseChurnSpec(s.String()) round-trips for any valid spec.
type ChurnSpec struct {
	Events    int
	LeaveProb float64
	MinAlive  int
	Rate      float64
}

// IsZero reports whether the spec generates no events.
func (s ChurnSpec) IsZero() bool { return s.Events == 0 }

// String renders the canonical form ("off" for the zero spec).
func (s ChurnSpec) String() string {
	if s.IsZero() {
		return "off"
	}
	return fmt.Sprintf("events=%d,leave=%s,minalive=%d,rate=%s",
		s.Events, kv.FormatFloat(s.LeaveProb), s.MinAlive, kv.FormatFloat(s.Rate))
}

// Validate range-checks a non-zero spec.
func (s ChurnSpec) Validate() error {
	if s.IsZero() {
		return nil
	}
	if s.Events < 0 || s.Events > 10_000_000 {
		return fmt.Errorf("dynamic: churn events=%d out of range [0,1e7]", s.Events)
	}
	if !(s.LeaveProb >= 0 && s.LeaveProb <= 1) { // negated form: rejects NaN too
		return fmt.Errorf("dynamic: churn leave=%v outside [0,1]", s.LeaveProb)
	}
	if s.MinAlive < 0 {
		return fmt.Errorf("dynamic: churn minalive=%d negative", s.MinAlive)
	}
	if !(s.Rate > 0) || s.Rate > 1e6 {
		return fmt.Errorf("dynamic: churn rate=%v outside (0,1e6]", s.Rate)
	}
	return nil
}

// ParseChurnSpec parses the grammar above (package kv's); absent keys
// take their documented defaults. Each key may appear once, and empty
// clauses are rejected.
func ParseChurnSpec(in string) (ChurnSpec, error) {
	s := strings.TrimSpace(in)
	if s == "" || s == "off" {
		return ChurnSpec{}, nil
	}
	fields, err := kv.Split("dynamic: churn", s)
	if err != nil {
		return ChurnSpec{}, err
	}
	spec := ChurnSpec{LeaveProb: 0.5, MinAlive: 2, Rate: 1}
	for _, f := range fields {
		switch f.Key {
		case "events":
			spec.Events, err = f.Int()
		case "minalive":
			spec.MinAlive, err = f.Int()
		case "leave":
			spec.LeaveProb, err = f.Float()
		case "rate":
			spec.Rate, err = f.Float()
		default:
			err = f.Errorf("unknown key")
		}
		if err != nil {
			return ChurnSpec{}, err
		}
	}
	if spec.Events == 0 {
		return ChurnSpec{}, fmt.Errorf("dynamic: churn spec %q needs events=<n> (or use %q)", in, "off")
	}
	if err := spec.Validate(); err != nil {
		return ChurnSpec{}, err
	}
	return spec, nil
}

// Schedule expands the spec into a concrete membership feed over an
// n-node overlay that starts fully alive. The feed is deterministic
// for a given seed and respects MinAlive against its own projection of
// the population (the engine applies stale events as no-ops, so a
// merged crash schedule cannot break it).
func (s ChurnSpec) Schedule(n int, seed uint64) ([]TimedEvent, error) {
	if s.IsZero() {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.MinAlive >= n {
		return nil, fmt.Errorf("dynamic: churn minalive=%d must be < n=%d", s.MinAlive, n)
	}
	src := rng.New(seed)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	nAlive := n
	t := 0.0
	evs := make([]TimedEvent, 0, s.Events)
	var pool []graph.NodeID
	for i := 0; i < s.Events; i++ {
		t += src.ExpFloat64() / s.Rate
		leave := src.Bool(s.LeaveProb)
		if nAlive == n {
			leave = true
		}
		if nAlive <= s.MinAlive {
			leave = false
		}
		if !leave && nAlive == n {
			continue // population pinned at full with leaves suppressed
		}
		pool = pool[:0]
		for x := 0; x < n; x++ {
			if alive[x] == leave {
				pool = append(pool, x)
			}
		}
		x := pool[src.Intn(len(pool))]
		if leave {
			alive[x] = false
			nAlive--
			evs = append(evs, TimedEvent{At: t, Kind: UpdateLeave, Node: x})
		} else {
			alive[x] = true
			nAlive++
			evs = append(evs, TimedEvent{At: t, Kind: UpdateJoin, Node: x})
		}
	}
	return evs, nil
}

// CrashSchedule translates a faults.Spec's crash windows into timed
// membership events: a leave at each window start and, for healing
// windows, a join at the restart. Windows naming nodes outside [0,n)
// are ignored, matching the injector's behavior on small overlays.
func CrashSchedule(fs faults.Spec, n int) []TimedEvent {
	var evs []TimedEvent
	for _, c := range fs.Crashes {
		if c.Node < 0 || c.Node >= n {
			continue
		}
		evs = append(evs, TimedEvent{At: c.Start, Kind: UpdateLeave, Node: c.Node})
		if c.End != faults.NoHeal {
			evs = append(evs, TimedEvent{At: c.End, Kind: UpdateJoin, Node: c.Node})
		}
	}
	sortSchedule(evs)
	return evs
}

// DriftSchedule turns a drift workload's epoch sequence into rerank
// events: epochs[i] lands at start+interval·i with the dirty set
// diffed against its predecessor. epochs[0] is assumed to be the
// system the engine was built on.
func DriftSchedule(epochs []*pref.System, start, interval float64) []TimedEvent {
	var evs []TimedEvent
	for i := 1; i < len(epochs); i++ {
		evs = append(evs, TimedEvent{
			At:     start + interval*float64(i),
			Kind:   UpdateRerank,
			System: epochs[i],
			Dirty:  DirtyNodes(epochs[i-1], epochs[i]),
		})
	}
	return evs
}

// DirtyNodes diffs two preference systems over the same graph: the
// nodes whose list order or quota changed.
func DirtyNodes(a, b *pref.System) []graph.NodeID {
	n := b.Graph().NumNodes()
	var dirty []graph.NodeID
	for x := 0; x < n; x++ {
		if a.Quota(x) != b.Quota(x) {
			dirty = append(dirty, x)
			continue
		}
		la, lb := a.List(x), b.List(x)
		if len(la) != len(lb) {
			dirty = append(dirty, x)
			continue
		}
		for i := range la {
			if la[i] != lb[i] {
				dirty = append(dirty, x)
				break
			}
		}
	}
	return dirty
}

// MergeSchedules interleaves schedules by time, stably (ties keep the
// argument order: a's events land before b's).
func MergeSchedules(a, b []TimedEvent) []TimedEvent {
	out := make([]TimedEvent, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sortSchedule(out)
	return out
}

func sortSchedule(evs []TimedEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}

// RunSchedule submits a time-sorted schedule to the engine and drains
// it. Returns the engine's epoch records.
func RunSchedule(e *Engine, evs []TimedEvent) ([]EpochRecord, error) {
	for i, ev := range evs {
		if err := e.submit(ev); err != nil {
			return e.Records(), fmt.Errorf("dynamic: schedule event %d: %w", i, err)
		}
	}
	e.Drain()
	return e.Records(), nil
}

// RunEngineChurn generates the spec's membership feed and drives it
// through the engine in batched epochs.
func RunEngineChurn(e *Engine, spec ChurnSpec, seed uint64) ([]EpochRecord, error) {
	evs, err := spec.Schedule(e.o.s.Graph().NumNodes(), seed)
	if err != nil {
		return nil, err
	}
	return RunSchedule(e, evs)
}
