package detector

import (
	"math"
	"strings"
	"testing"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

func TestConfigRoundTrip(t *testing.T) {
	cases := []Config{
		Default(),
		{Interval: 5},
		{Ticks: 200},
		{Interval: 0.25, Ticks: 40},
	}
	for _, c := range cases {
		got, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %q: got %+v want %+v", c.String(), got, c)
		}
	}
	for _, s := range []string{"off", ""} {
		c, err := Parse(s)
		if err != nil || c.Enabled() {
			t.Fatalf("Parse(%q) = %+v, %v; want disabled", s, c, err)
		}
	}
	if c, err := Parse("on"); err != nil || c != Default() {
		t.Fatalf("Parse(on) = %+v, %v; want Default()", c, err)
	}
	bad := []string{
		"hb=0", "hb=-3", "hb=nan", "hb=2e9", "ticks=0", "ticks=99999999",
		"ticks=x", "hb=5,hb=6", "wat=1", "hb", "hb=5,,ticks=8",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) accepted", s)
		}
	}
	// The estimator's settings are constants now; each former key is
	// rejected by name.
	for _, key := range []string{"phi", "window", "min", "floor"} {
		_, err := Parse("hb=5," + key + "=8")
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Fatalf("Parse(hb=5,%s=8) = %v, want an error naming %s", key, err, key)
		}
	}
}

func TestEstimator(t *testing.T) {
	e := NewEstimator(8, 0.5)
	if got := e.Phi(10); got != 0 {
		t.Fatalf("empty estimator Phi = %v, want 0", got)
	}
	if !math.IsInf(e.Threshold(8), 1) {
		t.Fatal("empty estimator must have an infinite threshold")
	}
	for i := 0; i < 20; i++ {
		e.Observe(1)
	}
	if e.Count() != 8 {
		t.Fatalf("window count = %d, want 8", e.Count())
	}
	mean, std := e.MeanStd()
	if mean != 1 || std != 0.5 {
		t.Fatalf("mean/std = %v/%v, want 1/0.5 (floored)", mean, std)
	}
	// Phi must be monotone in elapsed and ~0 near the mean.
	if e.Phi(1) > 1 {
		t.Fatalf("Phi(mean) = %v, want small", e.Phi(1))
	}
	prev := -1.0
	for _, x := range []float64{1, 2, 3, 5, 8, 13} {
		phi := e.Phi(x)
		if phi < prev {
			t.Fatalf("Phi not monotone at %v: %v < %v", x, phi, prev)
		}
		prev = phi
	}
	// Threshold inverts Phi (within bisection tolerance).
	for _, phi := range []float64{1, 4, 8, 16} {
		at := e.Threshold(phi)
		if got := e.Phi(at); math.Abs(got-phi) > 1e-6 {
			t.Fatalf("Phi(Threshold(%v)) = %v", phi, got)
		}
	}
}

// directThreshold is Threshold without memos: the window summary and
// the 64-step bisection recomputed from the raw samples on every call.
func directThreshold(samples []float64, floor, phi float64) float64 {
	if len(samples) == 0 {
		return math.Inf(1)
	}
	var mean float64
	for _, v := range samples {
		mean += v
	}
	mean /= float64(len(samples))
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(samples)))
	if std < floor {
		std = floor
	}
	if std <= 0 {
		return mean
	}
	if phi >= phiCap {
		phi = phiCap
	}
	lo, hi := 0.0, 45.0
	for i := 0; i < 64; i++ {
		z := (lo + hi) / 2
		got := -math.Log10(0.5 * math.Erfc(z/math.Sqrt2))
		if math.IsInf(got, 1) || got >= phi {
			hi = z
		} else {
			lo = z
		}
	}
	return mean + hi*std
}

// TestThresholdMemoBitIdentical: the memoized Threshold returns the
// very bits of a direct computation, over random windows and phis,
// with the window empty, with std at the floor (constant samples), and
// with phi at or past phiCap, whether the memos are cold or warm.
func TestThresholdMemoBitIdentical(t *testing.T) {
	src := rng.New(77)
	phis := []float64{0.5, 1, 3, 8, 8, 12.5, phiCap, phiCap + 50, 1e9}
	for trial := 0; trial < 200; trial++ {
		size := 1 + src.Intn(16)
		floor := []float64{0, 0.5, 2}[src.Intn(3)]
		e := NewEstimator(size, floor)
		var ring []float64 // the samples the window holds, oldest evicted
		constant := trial%4 == 0
		for step := 0; step < 40; step++ {
			phi := phis[src.Intn(len(phis))]
			if src.Bool(0.3) {
				phi = 20 * src.Float64()
			}
			want := directThreshold(ring, floor, phi)
			// Ask twice: the second call answers from warm memos.
			for k := 0; k < 2; k++ {
				if got := e.Threshold(phi); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d: Threshold(%v) = %v, direct %v (count %d)",
						trial, step, phi, got, want, e.Count())
				}
			}
			v := 1 + 3*src.Float64()
			if constant {
				v = 2
			}
			e.Observe(v)
			if len(ring) < size {
				ring = append(ring, v)
			} else {
				ring[step%size] = v
			}
		}
	}
}

// recorder is a minimal inner handler implementing the suspect upcall.
type recorder struct {
	suspects []int
	restores []int
}

func (r *recorder) Init(ctx simnet.Context)                                        { ctx.Halt() }
func (r *recorder) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {}
func (r *recorder) HandleSuspect(ctx simnet.Context, peer int)                     { r.suspects = append(r.suspects, peer) }
func (r *recorder) HandleRestore(ctx simnet.Context, peer int)                     { r.restores = append(r.restores, peer) }

// cutWindow drops every message to or from node during [start, end).
type cutWindow struct {
	node       int
	start, end float64
}

func (c cutWindow) Verdict(now float64, from, to int, msg simnet.Message) simnet.LinkVerdict {
	if (from == c.node || to == c.node) && now >= c.start && now < c.end {
		return simnet.LinkVerdict{Drop: true}
	}
	return simnet.LinkVerdict{}
}

// TestSuspectAndRestore drives a healing crash through a pair of
// monitors and checks the full verdict cycle: detection within a
// bounded latency, the suspect upcall, and the restore upcall once the
// peer is heard again — delivered in order.
func TestSuspectAndRestore(t *testing.T) {
	const crashStart, crashEnd = 50.0, 200.0
	recs := []*recorder{{}, {}}
	cfg := Config{Interval: 5, Ticks: 80}
	mons := Wrap([]simnet.Handler{recs[0], recs[1]}, [][]int{{1}, {0}}, cfg)
	r := simnet.NewRunner(2, simnet.Options{
		Seed:    3,
		Latency: simnet.ExponentialLatency(0.5),
		Policy:  cutWindow{node: 1, start: crashStart, end: crashEnd},
		Quiesce: true,
	})
	if _, err := r.Run(Handlers(mons)); err != nil {
		t.Fatal(err)
	}
	if len(recs[0].suspects) != 1 || recs[0].suspects[0] != 1 {
		t.Fatalf("node 0 suspects = %v, want [1]", recs[0].suspects)
	}
	if len(recs[0].restores) != 1 || recs[0].restores[0] != 1 {
		t.Fatalf("node 0 restores = %v, want [1]", recs[0].restores)
	}
	// Node 1 is cut off too: from its side the whole world went silent.
	if len(recs[1].suspects) != 1 || len(recs[1].restores) != 1 {
		t.Fatalf("node 1 verdicts = %v/%v, want one of each", recs[1].suspects, recs[1].restores)
	}
	var suspectAt, restoreAt float64 = -1, -1
	for _, ev := range mons[0].Events {
		if ev.Restore {
			restoreAt = ev.Time
		} else {
			suspectAt = ev.Time
		}
	}
	if suspectAt < crashStart || suspectAt > crashEnd {
		t.Fatalf("suspicion at %v outside the crash window [%v,%v)", suspectAt, crashStart, crashEnd)
	}
	// Detection latency: the bootstrap threshold is 4 ticks; allow
	// slack for estimator adaptation and latency jitter.
	if lat := suspectAt - crashStart; lat > 10*cfg.Interval {
		t.Fatalf("detection latency %v exceeds 10 intervals", lat)
	}
	if restoreAt < crashEnd {
		t.Fatalf("restore at %v before the window healed at %v", restoreAt, crashEnd)
	}
	if mons[0].Suspected(1) || mons[1].Suspected(0) {
		t.Fatal("still suspected after heal")
	}
}
