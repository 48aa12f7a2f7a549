package faults

import (
	"math"
	"sort"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// Event is one probabilistic injection the adversary applied, keyed by
// the global send sequence number of the message it hit (sequence
// numbers count every network send the policy sees, in order). Timed
// windows (partitions, crashes) are NOT events: they are deterministic
// functions of the Spec and replay from it directly.
type Event struct {
	Seq    int     `json:"seq"`
	Kind   string  `json:"kind"` // drop | dup | corrupt | delay
	Copies int     `json:"copies,omitempty"`
	Delay  float64 `json:"delay,omitempty"`
}

// Event kinds.
const (
	KindDrop    = "drop"
	KindDup     = "dup"
	KindCorrupt = "corrupt"
	KindDelay   = "delay"
)

// validEvent checks one replay event's fields.
func validEvent(e Event) bool {
	if e.Seq < 0 {
		return false
	}
	switch e.Kind {
	case KindDrop, KindCorrupt:
		return e.Copies == 0 && e.Delay == 0
	case KindDup:
		return e.Copies > 0 && e.Copies <= 64 && e.Delay == 0
	case KindDelay:
		return e.Copies == 0 && e.Delay > 0 && !math.IsInf(e.Delay, 0) && !math.IsNaN(e.Delay)
	}
	return false
}

// Injector implements simnet.LinkPolicy for one run. In record mode
// (NewInjector) it draws injections from its own seeded splitmix64
// stream and logs every applied one; in replay mode
// (NewReplayInjector) it applies exactly the given events at their
// recorded send sequence numbers and draws nothing. Timed windows come
// from the Spec in both modes.
//
// An Injector is single-use and single-threaded: the event Runner
// calls it from its scheduler thread and a transport.Cluster
// serializes verdicts under its policy mutex.
type Injector struct {
	spec   Spec
	src    *rng.Source // nil in replay mode
	seq    int
	log    []Event
	replay map[int][]Event
}

// NewInjector returns a recording injector: (spec, seed) fully
// determines every verdict on the deterministic event runtime.
func NewInjector(spec Spec, seed uint64) *Injector {
	return &Injector{spec: spec, src: rng.New(seed)}
}

// NewReplayInjector returns an injector that re-applies exactly the
// given recorded events (plus the spec's timed windows).
func NewReplayInjector(spec Spec, events []Event) *Injector {
	m := make(map[int][]Event, len(events))
	for _, e := range events {
		m[e.Seq] = append(m[e.Seq], e)
	}
	return &Injector{spec: spec, replay: m}
}

// Events returns the injections applied so far, in send order. The
// slice is the injector's log; callers must copy before mutating.
func (in *Injector) Events() []Event { return in.log }

// Sends returns the number of sends the injector has seen.
func (in *Injector) Sends() int { return in.seq }

// cut reports whether a timed window severs the from->to link at time
// now.
func (in *Injector) cut(now float64, from, to int) bool {
	for _, c := range in.spec.Crashes {
		if now >= c.Start && (c.End == NoHeal || now < c.End) && (from == c.Node || to == c.Node) {
			return true
		}
	}
	for _, p := range in.spec.Partitions {
		if now >= p.Start && (p.End == NoHeal || now < p.End) {
			inA := from >= p.Lo && from <= p.Hi
			inB := to >= p.Lo && to <= p.Hi
			if inA != inB {
				return true
			}
		}
	}
	return false
}

// Verdict implements simnet.LinkPolicy.
func (in *Injector) Verdict(now float64, from, to int, msg simnet.Message) simnet.LinkVerdict {
	seq := in.seq
	in.seq++
	if in.cut(now, from, to) {
		// Deterministic window cut: replayed from the spec, not logged.
		return simnet.LinkVerdict{Drop: true}
	}
	if in.replay != nil {
		var v simnet.LinkVerdict
		for _, e := range in.replay[seq] {
			switch e.Kind {
			case KindDrop:
				v.Drop = true
			case KindDup:
				v.Copies += e.Copies
			case KindCorrupt:
				v.Corrupt = true
			case KindDelay:
				v.ExtraDelay += e.Delay
			}
		}
		return v
	}
	// Record mode. Draw each fault class in fixed order so the stream
	// is a pure function of (spec, seed, send count).
	var v simnet.LinkVerdict
	if in.spec.Drop > 0 && in.src.Bool(in.spec.Drop) {
		in.log = append(in.log, Event{Seq: seq, Kind: KindDrop})
		v.Drop = true
		return v
	}
	if in.spec.Dup > 0 && in.src.Bool(in.spec.Dup) {
		v.Copies = 1
		in.log = append(in.log, Event{Seq: seq, Kind: KindDup, Copies: 1})
	}
	if in.spec.Corrupt > 0 && in.src.Bool(in.spec.Corrupt) {
		v.Corrupt = true
		in.log = append(in.log, Event{Seq: seq, Kind: KindCorrupt})
	}
	if in.spec.Delay > 0 && in.src.Bool(in.spec.Delay) {
		v.ExtraDelay = pareto(in.src, in.spec.delayScale())
		in.log = append(in.log, Event{Seq: seq, Kind: KindDelay, Delay: v.ExtraDelay})
	}
	return v
}

// delayScale returns the Pareto scale with its documented default.
func (s Spec) delayScale() float64 {
	if s.DelayScale > 0 {
		return s.DelayScale
	}
	return 1
}

// pareto draws a heavy-tailed extra delay: scale · (u^(-1/α) − 1) with
// α = 1.5, a distribution with finite mean and infinite variance — the
// "harshest asynchrony" knob, occasionally holding one message back
// for a very long time while the rest of the run proceeds.
func pareto(src *rng.Source, scale float64) float64 {
	const alpha = 1.5
	u := src.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := scale * (math.Pow(u, -1/alpha) - 1)
	// Cap at 10^4·scale: the tail must stretch schedules, not make a
	// single run effectively non-terminating.
	if max := 1e4 * scale; d > max {
		d = max
	}
	return d
}

// sortEvents orders events by (seq, kind) — the canonical replay-file
// order.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].Seq != events[j].Seq {
			return events[i].Seq < events[j].Seq
		}
		return events[i].Kind < events[j].Kind
	})
}
