package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// WorkloadSpec describes a reproducible workload compactly enough to
// freeze into a replay file: generator family, size, quota, metric and
// the workload seed. Zero-valued shape parameters get the same
// defaults the experiment suite uses (average degree ≈ 8).
type WorkloadSpec struct {
	Topology string  `json:"topology"` // gnp | geometric | ba | ring
	N        int     `json:"n"`
	B        int     `json:"b"`
	Metric   string  `json:"metric"` // random | symmetric | distance
	Seed     uint64  `json:"seed"`
	P        float64 `json:"p,omitempty"`      // gnp edge probability
	Radius   float64 `json:"radius,omitempty"` // geometric radius
	M        int     `json:"m,omitempty"`      // ba attachments
}

// Validate bounds the spec so corrupted replay files fail fast instead
// of allocating absurd instances.
func (w WorkloadSpec) Validate() error {
	switch w.Topology {
	case "gnp", "geometric", "ba", "ring":
	default:
		return fmt.Errorf("faults: unknown topology %q", w.Topology)
	}
	switch w.Metric {
	case "random", "symmetric", "distance":
	default:
		return fmt.Errorf("faults: unknown metric %q", w.Metric)
	}
	if w.N < 1 || w.N > 1<<20 {
		return fmt.Errorf("faults: n=%d outside [1,2^20]", w.N)
	}
	if w.B < 0 || w.B > w.N {
		return fmt.Errorf("faults: b=%d outside [0,n]", w.B)
	}
	if !(w.P >= 0 && w.P <= 1) {
		return fmt.Errorf("faults: p=%v outside [0,1]", w.P)
	}
	if !(w.Radius >= 0 && w.Radius <= 2) {
		return fmt.Errorf("faults: radius=%v outside [0,2]", w.Radius)
	}
	if w.M < 0 || w.M > w.N {
		return fmt.Errorf("faults: m=%d outside [0,n]", w.M)
	}
	return nil
}

// Build materializes the workload.
func (w WorkloadSpec) Build() (*pref.System, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(w.Seed)
	var g *graph.Graph
	var coords [][2]float64
	switch w.Topology {
	case "gnp":
		p := w.P
		if p == 0 {
			p = 8.0 / float64(maxInt(w.N-1, 1))
			if p > 1 {
				p = 1
			}
		}
		g = gen.GNP(src.Split(), w.N, p)
	case "geometric":
		r := w.Radius
		if r == 0 {
			r = 1.6 / sqrt(float64(w.N))
		}
		g, coords = gen.Geometric(src.Split(), w.N, r)
	case "ba":
		m := w.M
		if m == 0 {
			m = 4
		}
		if m >= w.N {
			m = maxInt(w.N-1, 1)
		}
		if w.N < 2 {
			g = graph.NewBuilder(w.N).MustGraph()
		} else {
			g = gen.BarabasiAlbert(src.Split(), w.N, m)
		}
	case "ring":
		g = gen.Ring(w.N)
	}
	var metric pref.Metric
	switch w.Metric {
	case "random":
		metric = pref.NewRandomMetric(src.Split())
	case "symmetric":
		metric = pref.NewSymmetricRandomMetric(src.Split())
	case "distance":
		if coords == nil {
			coords = make([][2]float64, g.NumNodes())
			for i := range coords {
				coords[i] = [2]float64{src.Float64(), src.Float64()}
			}
		}
		metric = pref.DistanceMetric{Coords: coords}
	}
	return pref.Build(g, metric, pref.UniformQuota(w.B))
}

// TrialOptions configures how one LID execution runs under the
// adversary.
type TrialOptions struct {
	// Reliable wraps the LID handlers in the ack/retransmit substrate.
	// Required for specs that drop or corrupt (bare LID assumes the
	// paper's reliable links).
	Reliable bool
	// RTO is the retransmission timeout (default 30).
	RTO float64
	// Jitter is the exponential latency jitter scale (default 4).
	Jitter float64
	// MaxRetries bounds the transport's retransmissions per frame
	// (0 = retry forever, the eventual-delivery regime). A bounded
	// budget changes the termination oracle: under an unhealed cut the
	// transport eventually abandons its frames and the run *quiesces*
	// instead of retrying forever, so the runner is put in Quiesce mode
	// and a run that drained with abandoned frames is classified as a
	// DegradedError rather than a violation.
	MaxRetries int
	// MaxDeliveries guards against non-termination; 0 derives a bound
	// from the instance size (the non-termination invariant).
	MaxDeliveries int
	// Scheduler selects the admission scheduling of the proposal loop,
	// in lid.ParseSchedulerSpec's grammar ("" = canonical). Scheduling
	// must never change the outcome, so every oracle — LID ≡ LIC,
	// validity, termination — runs unchanged under "greedy"; sweeping
	// Explore with it is the proof the scheduler is a pure scheduling
	// win, not an approximation.
	Scheduler string
}

func (o TrialOptions) rto() float64 {
	if o.RTO > 0 {
		return o.RTO
	}
	return 30
}

func (o TrialOptions) jitter() float64 {
	if o.Jitter > 0 {
		return o.Jitter
	}
	return 4
}

func (o TrialOptions) maxDeliveries(sys *pref.System) int {
	if o.MaxDeliveries > 0 {
		return o.MaxDeliveries
	}
	// Generous: LID needs <= 2m messages; reliable multiplies by
	// acks + retransmissions; heavy delay tails stretch further.
	return 400*sys.Graph().NumEdges() + 100*sys.Graph().NumNodes() + 20000
}

// Trial is one seeded protocol execution under an injector: it returns
// nil when every invariant held, or an error describing the violation.
// Explore calls it with recording injectors, the shrinker with replay
// injectors; both recover panics (the protocols' built-in invariant
// checks) into errors.
type Trial func(seed uint64, inj *Injector) error

// DegradedError classifies a run that terminated but lost frames for
// good: a bounded-retry transport (TrialOptions.MaxRetries) exhausted
// its budget against an unhealed fault and abandoned sends. Such a run
// quiesced — the "stuck forever retrying" failure mode did not occur —
// but the eventual-delivery assumption underlying the LIC-equality
// oracle is void, so equality (and any structural wreckage downstream
// of the lost frames, carried in Err) is reported as degradation, not
// as a protocol violation. Explore counts these separately.
type DegradedError struct {
	// Abandoned is the total number of frames given up; ByPeer breaks
	// it down by destination so a single dead link is visible.
	Abandoned int
	ByPeer    map[int]int
	// LinkDowns counts the transport's down-transition escalations.
	LinkDowns int
	// Err is the oracle failure observed in the degraded run, if any
	// (nil when the run quiesced with a clean partial outcome).
	Err error
}

func (e *DegradedError) Error() string {
	msg := fmt.Sprintf("faults: degraded run: %d frames abandoned toward %d peers, %d link-down escalations",
		e.Abandoned, len(e.ByPeer), e.LinkDowns)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *DegradedError) Unwrap() error { return e.Err }

// runError marks failures of the run itself — deadlock or the
// delivery-bound guard — which the degraded-run classification must
// never waive: a bounded-retry transport is supposed to quiesce.
type runError struct{ error }

func (e runError) Unwrap() error { return e.error }

// LIDTrial builds the standard trial: run LID on sys under the
// injector and verify the full invariant set — termination (bounded
// deliveries), symmetric locks and quota feasibility (BuildMatching +
// Validate), and outcome ≡ LIC edge-for-edge (Lemmas 3–6). With
// bounded retries (opts.MaxRetries > 0) a run whose transport
// abandoned frames comes back as a *DegradedError instead: it must
// still quiesce, but the LIC oracle is void without eventual delivery.
func LIDTrial(sys *pref.System, opts TrialOptions) Trial {
	tbl := satisfaction.NewTable(sys)
	want := matching.LIC(sys, tbl)
	return func(seed uint64, inj *Injector) error {
		m, eps, _, err := runLID(sys, tbl, seed, inj, opts)
		if _, isRun := err.(runError); isRun {
			return err
		}
		if ab := reliable.TotalAbandoned(eps); ab > 0 {
			return &DegradedError{
				Abandoned: ab,
				ByPeer:    abandonedByPeer(eps),
				LinkDowns: reliable.TotalLinkDowns(eps),
				Err:       err,
			}
		}
		if err != nil {
			return err
		}
		if !m.Equal(want) {
			return fmt.Errorf("faults: LID outcome differs from LIC (%d vs %d edges)", m.Size(), want.Size())
		}
		return nil
	}
}

// abandonedByPeer merges the per-endpoint abandonment maps.
func abandonedByPeer(eps []*reliable.Endpoint) map[int]int {
	merged := make(map[int]int)
	for _, e := range eps {
		for peer, n := range e.AbandonedBy() {
			merged[peer] += n
		}
	}
	return merged
}

// runLID executes one LID run under the injector and checks the
// structural invariants, returning the resulting matching, the
// transport endpoints (nil when bare) and stats. Runner failures come
// back as runError; structural violations as plain errors.
func runLID(sys *pref.System, tbl *satisfaction.Table, seed uint64, inj *Injector, opts TrialOptions) (*matching.Matching, []*reliable.Endpoint, simnet.Stats, error) {
	sched, err := lid.ParseSchedulerSpec(opts.Scheduler)
	if err != nil {
		return nil, nil, simnet.Stats{}, runError{err}
	}
	nodes := lid.NewNodes(sys, tbl)
	handlers := lid.Handlers(nodes)
	var eps []*reliable.Endpoint
	if opts.Reliable {
		eps = reliable.Wrap(handlers, opts.rto(), opts.MaxRetries)
		handlers = reliable.Handlers(eps)
	}
	simOpts := simnet.Options{
		Seed:          seed,
		Latency:       simnet.ExponentialLatency(opts.jitter()),
		Policy:        inj,
		MaxDeliveries: opts.maxDeliveries(sys),
		// With a bounded retry budget abandonment is a legal outcome:
		// nodes starved of answers idle rather than halt, and the run
		// ends when the event queue drains.
		Quiesce: opts.MaxRetries > 0,
	}
	if sched.Greedy() {
		// The admitter watches the LID state machines directly; the
		// reliable wrapping is transparent to it (endpoints are safe
		// to receive through before their own deferred Init).
		simOpts.Admitter = lid.NewGreedyAdmitter(sys, tbl, nodes, sched)
	}
	runner := simnet.NewRunner(sys.Graph().NumNodes(), simOpts)
	stats, err := runner.Run(handlers)
	if err != nil {
		return nil, eps, stats, runError{fmt.Errorf("faults: run: %w", err)}
	}
	m, err := lid.BuildMatching(nodes)
	if err != nil {
		return nil, eps, stats, fmt.Errorf("faults: %w", err)
	}
	if err := m.Validate(sys); err != nil {
		return nil, eps, stats, fmt.Errorf("faults: %w", err)
	}
	return m, eps, stats, nil
}

// ReplayFile freezes one failing (or interesting) run: everything
// needed to re-execute it bit-identically on the event runtime.
type ReplayFile struct {
	Version  int          `json:"version"`
	Workload WorkloadSpec `json:"workload"`
	// Seed is the event-runner seed (latency stream).
	Seed uint64 `json:"seed"`
	// Spec is the adversary in canonical string form; its timed
	// windows replay from here, its probabilistic part from Events.
	Spec     string  `json:"spec"`
	Reliable bool    `json:"reliable"`
	RTO      float64 `json:"rto,omitempty"`
	Jitter   float64 `json:"jitter,omitempty"`
	// MaxRetries freezes the transport's retry budget (0 = unbounded).
	MaxRetries int `json:"max_retries,omitempty"`
	// Scheduler freezes the admission scheduler spec ("" = canonical).
	Scheduler string `json:"scheduler,omitempty"`
	// Err is the violation the run reproduced when it was recorded.
	Err string `json:"err,omitempty"`
	// Events is the (minimized) injection schedule.
	Events []Event `json:"events"`
}

// ReplayVersion is the current replay file format version.
const ReplayVersion = 1

// Validate checks the file strictly; Load calls it.
func (f *ReplayFile) Validate() error {
	if f.Version != ReplayVersion {
		return fmt.Errorf("faults: replay version %d unsupported (want %d)", f.Version, ReplayVersion)
	}
	if err := f.Workload.Validate(); err != nil {
		return err
	}
	if _, err := Parse(f.Spec); err != nil {
		return err
	}
	if !(f.RTO >= 0) || f.RTO > 1e9 {
		return fmt.Errorf("faults: rto=%v invalid", f.RTO)
	}
	if !(f.Jitter >= 0) || f.Jitter > 1e9 {
		return fmt.Errorf("faults: jitter=%v invalid", f.Jitter)
	}
	if f.MaxRetries < 0 || f.MaxRetries > 1<<20 {
		return fmt.Errorf("faults: max_retries=%d invalid", f.MaxRetries)
	}
	if _, err := lid.ParseSchedulerSpec(f.Scheduler); err != nil {
		return err
	}
	if len(f.Events) > 1<<22 {
		return fmt.Errorf("faults: %d events exceed the sanity cap", len(f.Events))
	}
	for i, e := range f.Events {
		if !validEvent(e) {
			return fmt.Errorf("faults: event %d (%+v) invalid", i, e)
		}
	}
	return nil
}

// LoadReplay parses and validates a replay file. It never panics on
// corrupted input — any malformation is an error.
func LoadReplay(r io.Reader) (*ReplayFile, error) {
	dec := json.NewDecoder(io.LimitReader(r, 256<<20))
	dec.DisallowUnknownFields()
	var f ReplayFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("faults: replay file: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("faults: trailing data after replay object")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Save writes the file as indented JSON.
func (f *ReplayFile) Save(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReplayOutcome reports one re-execution of a replay file.
type ReplayOutcome struct {
	// Violation is the reproduced invariant violation ("" = the run
	// was clean).
	Violation string
	Stats     simnet.Stats
	// Matches reports whether the reproduced violation matches the
	// recorded one (only meaningful when both are non-empty).
	Matches bool
}

// Run re-executes the frozen run and reports whether the recorded
// violation reproduces. Setup failures (unbuildable workload) are
// returned as an error; protocol violations — including panics from
// the protocols' invariant checks — land in the outcome.
func (f *ReplayFile) Run() (ReplayOutcome, error) {
	if err := f.Validate(); err != nil {
		return ReplayOutcome{}, err
	}
	spec, err := Parse(f.Spec)
	if err != nil {
		return ReplayOutcome{}, err
	}
	sys, err := f.Workload.Build()
	if err != nil {
		return ReplayOutcome{}, err
	}
	trial := LIDTrial(sys, TrialOptions{Reliable: f.Reliable, RTO: f.RTO, Jitter: f.Jitter, MaxRetries: f.MaxRetries, Scheduler: f.Scheduler})
	verr := runTrial(trial, f.Seed, NewReplayInjector(spec, f.Events))
	out := ReplayOutcome{}
	if verr != nil {
		out.Violation = verr.Error()
		out.Matches = f.Err != "" && out.Violation == f.Err
	}
	return out, nil
}

// runTrial invokes trial, converting a panic (the protocols' invariant
// checks fire as panics by design) into a violation error.
func runTrial(trial Trial, seed uint64, inj *Injector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("faults: protocol panic: %v", r)
		}
	}()
	return trial(seed, inj)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sqrt by Newton iteration (keeps the file's import set stable).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}
