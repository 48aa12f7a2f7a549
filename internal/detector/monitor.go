package detector

import (
	"fmt"
	"sort"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/simnet"
)

// hbMsg is a heartbeat ping.
type hbMsg struct{}

// Kind implements simnet.Kinder.
func (hbMsg) Kind() string { return "HB" }

// hbAckMsg answers a heartbeat.
type hbAckMsg struct{}

// Kind implements simnet.Kinder.
func (hbAckMsg) Kind() string { return "HB-ACK" }

// tickToken is the Monitor's private timer token.
type tickToken struct{}

// bootstrapTicks is the fixed suspicion threshold (in heartbeat ticks)
// used before minSamples inter-arrival samples have accumulated.
const bootstrapTicks = 4

// SuspectEvent records one verdict transition, for the detection
// latency and accuracy measurements of experiment E16.
type SuspectEvent struct {
	Peer    int
	Tick    int     // monitor tick at the verdict
	Time    float64 // virtual time (0 on the goroutine runtime)
	Restore bool    // false = suspect, true = restore
}

// peerView is the monitor's local evidence about one neighbor.
type peerView struct {
	est        *Estimator
	lastHeard  int // tick of the last arrival of any kind
	lastSample int // tick of the last sampled (HB/HB-ACK) arrival
	suspected  bool
	span       obs.SpanID // telemetry: the open suspicion->restore arc
}

// Monitor wraps an inner handler with heartbeat failure detection of a
// fixed neighbor set. It composes like reliable.Endpoint: heartbeats
// travel as raw simnet messages beside the inner protocol's traffic,
// every arriving message counts as evidence of life, and verdicts are
// delivered through the simnet.SuspectHandler upcall when the inner
// handler implements it (counted either way).
type Monitor struct {
	inner simnet.Handler
	cfg   Config
	order []int // monitored neighbors, ascending
	peers map[int]*peerView
	tick  int

	// Counters for the experiments.
	Heartbeats int // HB pings sent
	AcksSent   int // HB-ACK replies sent
	Suspicions int
	Restores   int
	// Events is the verdict transition log in delivery order.
	Events []SuspectEvent
}

// NewMonitor wraps inner, monitoring the given neighbors. The config
// must be enabled (use the raw handler instead of a disabled monitor —
// the zero-config hook guarantee is "no Monitor, no change").
func NewMonitor(inner simnet.Handler, neighbors []int, cfg Config) *Monitor {
	if !cfg.Enabled() {
		panic("detector: NewMonitor with a disabled config")
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("detector: %v", err))
	}
	order := append([]int(nil), neighbors...)
	sort.Ints(order)
	peers := make(map[int]*peerView, len(order))
	for _, p := range order {
		peers[p] = &peerView{est: NewEstimator(Window, Floor)}
	}
	return &Monitor{inner: inner, cfg: cfg, order: order, peers: peers}
}

// Init implements simnet.Handler.
func (m *Monitor) Init(ctx simnet.Context) {
	if len(m.order) > 0 {
		simnet.SetTimerOn(ctx, m.cfg.interval(), tickToken{})
	}
	m.inner.Init(ctx)
}

// HandleMessage implements simnet.Handler.
func (m *Monitor) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	switch msg.(type) {
	case tickToken:
		if from != ctx.ID() {
			panic(fmt.Sprintf("detector: tick token from foreign node %d", from))
		}
		m.onTick(ctx)
		return
	case hbMsg:
		m.evidence(ctx, from, true)
		m.AcksSent++
		ctx.Send(from, hbAckMsg{})
		return
	case hbAckMsg:
		m.evidence(ctx, from, true)
		return
	}
	if from != ctx.ID() {
		// Protocol traffic is as good a liveness proof as a heartbeat,
		// but only HB/HB-ACK arrivals feed the gap estimator: protocol
		// bursts would otherwise drive the estimated gap toward zero
		// and turn routine silence into suspicion.
		m.evidence(ctx, from, false)
	}
	m.inner.HandleMessage(ctx, from, msg)
}

// evidence records an arrival from peer, restoring it first if it was
// suspected (the upcall precedes the delivery that revived the peer).
func (m *Monitor) evidence(ctx simnet.Context, peer int, sample bool) {
	pv, ok := m.peers[peer]
	if !ok {
		return // not monitored (e.g. a corrupted frame's forged sender)
	}
	if pv.suspected {
		pv.suspected = false
		m.Restores++
		m.Events = append(m.Events, SuspectEvent{Peer: peer, Tick: m.tick, Time: ctx.Time(), Restore: true})
		// Telemetry: the restore closes the suspicion arc.
		if rec := simnet.ObserverOf(ctx); rec != nil {
			rec.CloseSpan(ctx.ID(), pv.span, "restored", ctx.Time())
			pv.span = 0
		}
		// The gap that just ended spans the whole outage; feeding it to
		// the estimator would poison the window, so only re-anchor.
		pv.lastSample = m.tick
		if sh, ok := m.inner.(simnet.SuspectHandler); ok {
			sh.HandleRestore(ctx, peer)
		}
	} else if sample {
		pv.est.Observe(float64(m.tick - pv.lastSample))
		pv.lastSample = m.tick
	}
	pv.lastHeard = m.tick
}

// onTick evaluates suspicion for every monitored peer, then pings them
// all (suspected peers included — the probe is how recovery is
// noticed), then schedules the next tick while budget remains.
func (m *Monitor) onTick(ctx simnet.Context) {
	m.tick++
	for _, p := range m.order {
		pv := m.peers[p]
		if !pv.suspected {
			elapsed := float64(m.tick - pv.lastHeard)
			threshold := float64(bootstrapTicks)
			if pv.est.Count() >= minSamples {
				threshold = pv.est.Threshold(phiThreshold)
			}
			if elapsed > threshold {
				pv.suspected = true
				m.Suspicions++
				m.Events = append(m.Events, SuspectEvent{Peer: p, Tick: m.tick, Time: ctx.Time()})
				// Telemetry: a suspicion opens an arc that the next
				// evidence from the peer (restore) closes; arcs still
				// open at run end mark unrecovered peers.
				if rec := simnet.ObserverOf(ctx); rec != nil {
					pv.span = rec.OpenSpan(ctx.ID(), "detector.suspicion", fmt.Sprintf("peer=%d", p), ctx.Time())
				}
				if sh, ok := m.inner.(simnet.SuspectHandler); ok {
					sh.HandleSuspect(ctx, p)
				}
			}
		}
		m.Heartbeats++
		ctx.Send(p, hbMsg{})
	}
	if m.tick < m.cfg.ticks() {
		simnet.SetTimerOn(ctx, m.cfg.interval(), tickToken{})
	}
}

// Suspected reports the monitor's current verdict about peer.
func (m *Monitor) Suspected(peer int) bool {
	pv, ok := m.peers[peer]
	return ok && pv.suspected
}

// Tick returns how many heartbeat rounds have run.
func (m *Monitor) Tick() int { return m.tick }

// Interval returns the effective heartbeat period (for converting
// ticks to virtual time in reports).
func (m *Monitor) Interval() float64 { return m.cfg.interval() }

// Wrap builds one Monitor per handler using the graph adjacency:
// monitor i watches neighbors[i]. Handlers with an empty neighbor set
// get a Monitor too (it stays silent), keeping indexes aligned.
func Wrap(handlers []simnet.Handler, neighbors [][]int, cfg Config) []*Monitor {
	if len(handlers) != len(neighbors) {
		panic(fmt.Sprintf("detector: %d handlers, %d neighbor sets", len(handlers), len(neighbors)))
	}
	out := make([]*Monitor, len(handlers))
	for i, h := range handlers {
		out[i] = NewMonitor(h, neighbors[i], cfg)
	}
	return out
}

// Handlers converts monitors to the simnet.Handler slice.
func Handlers(monitors []*Monitor) []simnet.Handler {
	out := make([]simnet.Handler, len(monitors))
	for i, m := range monitors {
		out[i] = m
	}
	return out
}

// TotalSuspicions sums suspect verdicts across monitors.
func TotalSuspicions(monitors []*Monitor) int {
	total := 0
	for _, m := range monitors {
		total += m.Suspicions
	}
	return total
}

// TotalRestores sums restore verdicts across monitors.
func TotalRestores(monitors []*Monitor) int {
	total := 0
	for _, m := range monitors {
		total += m.Restores
	}
	return total
}

// PublishMetrics adds the detection totals of one finished run to reg.
// Nil-safe: a nil registry is a no-op.
func PublishMetrics(reg *metrics.Registry, monitors []*Monitor) {
	if reg == nil {
		return
	}
	var hb, acks int
	for _, m := range monitors {
		hb += m.Heartbeats
		acks += m.AcksSent
	}
	reg.Counter("detector_heartbeats_total", "HB pings sent").Add(int64(hb))
	reg.Counter("detector_acks_total", "HB-ACK replies sent").Add(int64(acks))
	events := reg.Family("detector_events_total", "verdict transitions by kind", "kind")
	events.With("suspect").Add(int64(TotalSuspicions(monitors)))
	events.With("restore").Add(int64(TotalRestores(monitors)))
}

// PublishVerdicts scores every monitor verdict against ground truth
// and publishes the totals — the registry-backed form of the verdict
// log, so accuracy checks (experiment E16's zero-false-suspicion
// control) read instruments instead of scraping Events. wasDown
// reports whether peer was actually down at the given virtual time;
// a nil wasDown means "nothing was ever down", making every suspicion
// false — the correct truth function for a fault-free control run.
// Nil-safe on reg.
func PublishVerdicts(reg *metrics.Registry, monitors []*Monitor, wasDown func(peer int, at float64) bool) {
	if reg == nil {
		return
	}
	var suspicions, restores, falseSusp int
	for _, m := range monitors {
		suspicions += m.Suspicions
		restores += m.Restores
		for _, ev := range m.Events {
			if !ev.Restore && (wasDown == nil || !wasDown(ev.Peer, ev.Time)) {
				falseSusp++
			}
		}
	}
	reg.Counter("detector_suspicions_total", "suspect verdicts issued").Add(int64(suspicions))
	reg.Counter("detector_restores_total", "restore verdicts issued").Add(int64(restores))
	reg.Counter("detector_false_suspicions_total", "suspect verdicts contradicting ground truth").Add(int64(falseSusp))
}
