// Package detector implements a deterministic heartbeat failure
// detector for the overlay maintenance protocols. The paper's model
// (§5) has no failures to detect; the §7 future-work questions —
// churn and misbehavior — need one: an unannounced crash never sends
// the BYE that dlid's repair relies on, so without detection the
// matching silently stops being maximal on the live subgraph.
//
// A Monitor wraps any simnet.Handler (the same composition pattern as
// reliable.Endpoint). Every heartbeat interval it pings each monitored
// neighbor (HB), answers pings (HB-ACK), and treats *any* arriving
// message as evidence of life. Suspicion is phi-accrual style
// (Hayashibara et al.): the observed inter-arrival gaps feed a
// windowed normal estimate, and a peer is suspected when the
// improbability of its current silence, phi = -log10 P(gap > elapsed),
// crosses a threshold. Verdicts are delivered to the wrapped handler
// through the optional simnet.SuspectHandler upcall interface —
// Suspect when silence crosses the threshold, Restore when a suspected
// peer is heard from again — making crash-recovery observable, not
// just crash-stop.
//
// Determinism: all bookkeeping is in heartbeat ticks (the monitor's
// own timer count), never wall-clock time, so the detector behaves
// bit-identically on the event runtime and still works on the
// goroutine runtime where Context.Time reports nothing.
package detector

import (
	"fmt"
	"strconv"
	"strings"

	"overlaymatch/internal/kv"
)

// The phi-accrual settings every Monitor shares. A peer is suspected
// when its current silence has probability below 10^-phiThreshold
// under a normal estimate of its last Window inter-arrival gaps; until
// minSamples gaps have accumulated, the fixed bootstrapTicks threshold
// applies instead.
const (
	phiThreshold = 8
	// Window is the inter-arrival sample window.
	Window     = 64
	minSamples = 3
	// Floor is the minimum standard deviation, in ticks, of the
	// adaptive estimate: it guards against a degenerate zero-variance
	// window over a deterministic network.
	Floor = 0.5
)

// Config parameterizes one Monitor's heartbeat schedule. The zero
// value means "disabled"; zero-valued fields of an otherwise non-zero
// config take the defaults below (the same convention as
// faults.TrialOptions).
type Config struct {
	// Interval is the heartbeat period in virtual time units
	// (default 5).
	Interval float64
	// Ticks bounds how many heartbeat rounds the monitor runs; after
	// the budget the detector goes quiet so event-runtime runs can
	// drain to quiescence (default 64).
	Ticks int
}

// Default is the enabled configuration with every field at its
// default.
func Default() Config {
	return Config{Interval: 5, Ticks: 64}
}

// Enabled reports whether the config turns the detector on.
func (c Config) Enabled() bool { return c != Config{} }

func (c Config) interval() float64 {
	if c.Interval > 0 {
		return c.Interval
	}
	return 5
}

func (c Config) ticks() int {
	if c.Ticks > 0 {
		return c.Ticks
	}
	return 64
}

// Validate bounds every field so corrupted flag strings fail fast.
func (c Config) Validate() error {
	if c.Interval < 0 || c.Interval > 1e9 {
		return fmt.Errorf("detector: hb=%v outside (0,1e9]", c.Interval)
	}
	if c.Ticks < 0 || c.Ticks > 1<<24 {
		return fmt.Errorf("detector: ticks=%d outside [1,2^24]", c.Ticks)
	}
	return nil
}

// String renders the canonical spec form: comma-separated key=value
// pairs in fixed order, zero (defaulted) fields omitted, "off" for the
// zero config. Parse(c.String()) == c for every valid config.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	var parts []string
	if c.Interval != 0 {
		parts = append(parts, "hb="+kv.FormatFloat(c.Interval))
	}
	if c.Ticks != 0 {
		parts = append(parts, "ticks="+strconv.Itoa(c.Ticks))
	}
	return strings.Join(parts, ",")
}

// Parse reads the canonical spec form (package kv's grammar). "off"
// and "" give the disabled zero config; "on" gives Default(). Keys: hb
// and ticks, each positive. Duplicate keys, unknown keys, and
// out-of-range values are errors.
func Parse(s string) (Config, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "", "off":
		return Config{}, nil
	case "on":
		return Default(), nil
	}
	fields, err := kv.Split("detector", s)
	if err != nil {
		return Config{}, err
	}
	var c Config
	for _, f := range fields {
		switch f.Key {
		case "hb":
			c.Interval, err = f.Float()
			// The negated form rejects NaN along with zero and
			// negatives: a zero field means "default", never a value.
			if err == nil && !(c.Interval > 0) {
				err = f.Errorf("%v is not positive", c.Interval)
			}
		case "ticks":
			c.Ticks, err = f.Int()
			if err == nil && c.Ticks <= 0 {
				err = f.Errorf("%d is not positive", c.Ticks)
			}
		default:
			err = f.Errorf("unknown key (want hb or ticks)")
		}
		if err != nil {
			return Config{}, err
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
