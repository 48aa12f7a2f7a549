// Package faults is the repository's standing network adversary: a
// deterministic fault-injection layer over both simnet runtimes, plus
// a seed-sweeping schedule explorer that hunts for interleavings
// violating the paper's correctness claims (Lemmas 3–6: LID locks
// exactly the LIC edges under arbitrary asynchrony; §5's reliable-link
// assumption as discharged by package reliable).
//
// The pieces:
//
//   - Spec describes an adversary declaratively: per-message
//     drop/duplicate/corrupt probabilities, heavy-tailed extra delays,
//     timed network partitions (healing or not) and node crash/restart
//     windows. Specs round-trip through a compact flag-friendly string
//     form ("drop=0.1,dup=0.05,partition=20:60:0-9").
//   - Injector turns a (Spec, seed) pair into a simnet.LinkPolicy.
//     Injection decisions are drawn from the injector's OWN splitmix64
//     stream, never the runner's, so a (seed, Spec) pair replays
//     bit-identically and a zero Spec leaves runs byte-identical to no
//     policy at all. Every probabilistic injection is logged as an
//     Event keyed by the global send sequence number.
//   - ReplayFile freezes a failing run — workload descriptor, seeds,
//     Spec, and the (minimized) event list — as JSON that
//     `overlaysim -replay` re-executes.
//   - Explore sweeps seeds, recovers panics (the protocols' invariant
//     checks) and invariant errors as Violations, and shrinks each
//     failure's event list by greedy chunked removal until no event can
//     be removed without losing the failure.
//
// The adversary subsumes the earlier fault models: uniform loss (E11)
// is Spec{Drop: p} under package reliable (a link policy is the
// simulator's only loss model), churn (E14) is crash/join at the
// protocol layer, and E15 sweeps the full mix.
package faults

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"overlaymatch/internal/kv"
)

// NoHeal as a window End means the fault never heals. Any End < 0
// parses/normalizes to NoHeal. A never-healing partition or crash
// breaks eventual delivery: protocols that rely on it (everything in
// this repository) will correctly be reported as non-terminating.
const NoHeal = -1

// Partition isolates the ID range [Lo, Hi] from the rest of the
// network during [Start, End): messages crossing the cut are dropped.
// Messages inside either side flow normally.
type Partition struct {
	Start, End float64
	Lo, Hi     int
}

// Crash isolates one node during [Start, End): every message to or
// from it is dropped, modelling a crashed process; End is the restart
// (messages flow again — state is the protocol's own problem, which is
// exactly what dlid's CmdLeave/CmdJoin repair handles at the protocol
// layer).
type Crash struct {
	Start, End float64
	Node       int
}

// Spec declares one adversary. The zero value is the fault-free
// network.
type Spec struct {
	// Drop, Dup and Corrupt are independent per-message probabilities
	// in [0, 1): lose the message, deliver one extra copy, or mangle
	// the payload (simnet.Corrupted).
	Drop    float64
	Dup     float64
	Corrupt float64
	// Delay is the per-message probability of an extra heavy-tailed
	// delay; DelayScale is the Pareto scale of that delay in virtual
	// time units (default 1 when Delay > 0 and DelayScale == 0).
	Delay      float64
	DelayScale float64
	// Partitions and Crashes are timed windows, only meaningful on the
	// event runtime (a transport.Cluster has no global clock).
	Partitions []Partition
	Crashes    []Crash
}

// NodeDownAt reports whether node is inside any crash window at
// virtual time `at` — the ground-truth function detector verdict
// scoring (detector.PublishVerdicts) checks suspicions against.
func (s Spec) NodeDownAt(node int, at float64) bool {
	for _, c := range s.Crashes {
		if c.Node != node || at < c.Start {
			continue
		}
		if c.End == NoHeal || at < c.End {
			return true
		}
	}
	return false
}

// IsZero reports whether the spec injects nothing.
func (s Spec) IsZero() bool {
	return s.Drop == 0 && s.Dup == 0 && s.Corrupt == 0 && s.Delay == 0 &&
		len(s.Partitions) == 0 && len(s.Crashes) == 0
}

// PreservesDelivery reports whether every message is eventually
// delivered at least once under the spec alone (no transport): no
// drops, no corruption, no unhealed windows. Duplication, delay and
// healing windows reorder and repeat but never lose — the regime the
// Lemma 3–6 property tests exercise on bare LID. Dropping/corrupting
// specs need package reliable underneath.
func (s Spec) PreservesDelivery() bool {
	if s.Drop != 0 || s.Corrupt != 0 {
		return false
	}
	for _, p := range s.Partitions {
		if p.End == NoHeal {
			return false
		}
	}
	for _, c := range s.Crashes {
		if c.End == NoHeal {
			return false
		}
	}
	return true
}

// Validate checks ranges; Parse output always validates.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", s.Drop}, {"dup", s.Dup}, {"corrupt", s.Corrupt}, {"delay", s.Delay}} {
		// The negated form rejects NaN along with out-of-range values.
		if !(p.v >= 0 && p.v < 1) {
			return fmt.Errorf("faults: %s=%v outside [0,1)", p.name, p.v)
		}
	}
	if !(s.DelayScale >= 0) || s.DelayScale > 1e12 {
		return fmt.Errorf("faults: delayscale=%v invalid", s.DelayScale)
	}
	for _, p := range s.Partitions {
		if !(p.Start >= 0) || (p.End != NoHeal && !(p.End > p.Start)) {
			return fmt.Errorf("faults: partition window [%v,%v) invalid", p.Start, p.End)
		}
		if p.Lo < 0 || p.Hi < p.Lo {
			return fmt.Errorf("faults: partition range %d-%d invalid", p.Lo, p.Hi)
		}
	}
	for _, c := range s.Crashes {
		if !(c.Start >= 0) || (c.End != NoHeal && !(c.End > c.Start)) {
			return fmt.Errorf("faults: crash window [%v,%v) invalid", c.Start, c.End)
		}
		if c.Node < 0 {
			return fmt.Errorf("faults: crash node %d negative", c.Node)
		}
	}
	return nil
}

// String renders the canonical spec string: probability fields in fixed
// order with zero fields omitted, then partitions, then crashes (each
// sorted). Parse(s.String()) reproduces the normalized spec; the empty
// spec renders as "off".
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, k+"="+kv.FormatFloat(v))
		}
	}
	add("drop", s.Drop)
	add("dup", s.Dup)
	add("corrupt", s.Corrupt)
	add("delay", s.Delay)
	add("delayscale", s.DelayScale)
	ps, cs := slices.Clone(s.Partitions), slices.Clone(s.Crashes)
	sortWindows(ps, cs)
	for _, p := range ps {
		parts = append(parts, fmt.Sprintf("partition=%s:%s:%d-%d",
			kv.FormatFloat(p.Start), formatEnd(p.End), p.Lo, p.Hi))
	}
	for _, c := range cs {
		parts = append(parts, fmt.Sprintf("crash=%s:%s:%d",
			kv.FormatFloat(c.Start), formatEnd(c.End), c.Node))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

func formatEnd(t float64) string {
	if t == NoHeal {
		return "inf"
	}
	return kv.FormatFloat(t)
}

// sortWindows puts partitions in (Start, Lo, Hi, End) order and crashes
// in (Start, Node, End) order, a never-healing End after every finite
// one. Both orders are total on parsed windows (Parse reads a -0 start
// as 0), so the canonical string does not depend on the order the
// windows were given in.
func sortWindows(ps []Partition, cs []Crash) {
	slices.SortFunc(ps, func(a, b Partition) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Lo, b.Lo),
			cmp.Compare(a.Hi, b.Hi), compareEnd(a.End, b.End))
	})
	slices.SortFunc(cs, func(a, b Crash) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Node, b.Node),
			compareEnd(a.End, b.End))
	})
}

// compareEnd orders window ends with NoHeal after every finite end.
func compareEnd(a, b float64) int {
	switch {
	case a == b:
		return 0
	case a == NoHeal:
		return 1
	case b == NoHeal:
		return -1
	}
	return cmp.Compare(a, b)
}

// Parse builds a Spec from its string form: comma-separated key=value
// fields (package kv's grammar). Keys: drop, dup, corrupt, delay,
// delayscale (floats, each at most once); partition=START:END:LO-HI and
// crash=START:END:NODE may repeat, END may be "inf" for a window that
// never heals. "" and "off" are the zero spec. The result is normalized
// (windows sorted) and validated.
func Parse(in string) (Spec, error) {
	var s Spec
	in = strings.TrimSpace(in)
	if in == "" || in == "off" {
		return s, nil
	}
	fields, err := kv.Split("faults", in, "partition", "crash")
	if err != nil {
		return s, err
	}
	for _, f := range fields {
		switch f.Key {
		case "drop", "dup", "corrupt", "delay", "delayscale":
			v, err := f.Float()
			if err != nil {
				return s, err
			}
			switch f.Key {
			case "drop":
				s.Drop = v
			case "dup":
				s.Dup = v
			case "corrupt":
				s.Corrupt = v
			case "delay":
				s.Delay = v
			case "delayscale":
				s.DelayScale = v
			}
		case "partition":
			start, end, rest, err := parseWindow(f.Val)
			if err != nil {
				return s, err
			}
			loS, hiS, ok := strings.Cut(rest, "-")
			if !ok {
				return s, fmt.Errorf("faults: partition range %q is not LO-HI", rest)
			}
			lo, err := strconv.Atoi(loS)
			if err != nil {
				return s, fmt.Errorf("faults: partition lo: %v", err)
			}
			hi, err := strconv.Atoi(hiS)
			if err != nil {
				return s, fmt.Errorf("faults: partition hi: %v", err)
			}
			s.Partitions = append(s.Partitions, Partition{Start: start, End: end, Lo: lo, Hi: hi})
		case "crash":
			start, end, rest, err := parseWindow(f.Val)
			if err != nil {
				return s, err
			}
			node, err := strconv.Atoi(rest)
			if err != nil {
				return s, fmt.Errorf("faults: crash node: %v", err)
			}
			s.Crashes = append(s.Crashes, Crash{Start: start, End: end, Node: node})
		default:
			return s, f.Errorf("unknown key")
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	// Normalize: sort as String does, so Parse(String()) is the
	// identity on the parsed form.
	sortWindows(s.Partitions, s.Crashes)
	return s, nil
}

// parseWindow splits "START:END:REST", with END possibly "inf".
func parseWindow(v string) (start, end float64, rest string, err error) {
	fields := strings.SplitN(v, ":", 3)
	if len(fields) != 3 {
		return 0, 0, "", fmt.Errorf("faults: window %q is not START:END:ARG", v)
	}
	start, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, 0, "", fmt.Errorf("faults: window start: %v", err)
	}
	if start == 0 {
		start = 0 // -0 reads as 0: the two sort as equal but render apart
	}
	if fields[1] == "inf" {
		end = NoHeal
	} else {
		end, err = strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, 0, "", fmt.Errorf("faults: window end: %v", err)
		}
		if end < 0 {
			end = NoHeal
		}
	}
	return start, end, fields[2], nil
}
