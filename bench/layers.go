package main

// Timing decorators for the simnet seams: Handler, Context and Admitter.
// They measure each protocol layer from outside, by timing the calls
// into it, and change nothing the layers can observe: a decorator
// exposes exactly the optional interfaces its inner value has
// (TimerSetter and Observable on contexts, SuspectHandler and
// LinkDownHandler on handlers), because the detector and reliable
// layers branch on those type assertions.
//
// All state is per node and touched only from that node's delivery
// thread (the runtimes call one node's handler sequentially), so the
// UDP cluster, which runs every node on its own goroutine, needs no
// locks. Totals are read after the runtime's Run has returned.

import (
	"sync/atomic"
	"time"

	"overlaymatch/internal/obs"
	"overlaymatch/internal/simnet"
)

// origin is the zero of every recorded timestamp.
var origin = time.Now()

// nowNs returns monotonic nanoseconds since origin.
func nowNs() int64 { return int64(time.Since(origin)) }

// acc counts calls and the wall time they took.
type acc struct {
	calls int64
	ns    int64
}

func (a *acc) add(b acc) {
	a.calls += b.calls
	a.ns += b.ns
}

// callSpan is one timed call, kept for the Chrome trace.
type callSpan struct {
	name       string
	start, end int64
}

// callLog keeps one node's per-call spans. budget is shared by all
// nodes of a run, so the total stays under the cap.
type callLog struct {
	spans  []callSpan
	budget *atomic.Int64
}

func (l *callLog) add(name string, start, end int64) {
	if l == nil || l.budget.Add(-1) < 0 {
		return
	}
	l.spans = append(l.spans, callSpan{name, start, end})
}

// callLogs holds one callLog per node and one for the runtime's own
// thread (the admitter), all sharing one budget; a nil *callLogs
// records nothing.
type callLogs struct {
	nodes   []*callLog
	runtime *callLog
}

func newCallLogs(n int, budget int64) *callLogs {
	b := new(atomic.Int64)
	b.Store(budget)
	ls := &callLogs{nodes: make([]*callLog, n), runtime: &callLog{budget: b}}
	for i := range ls.nodes {
		ls.nodes[i] = &callLog{budget: b}
	}
	return ls
}

func (ls *callLogs) node(i int) *callLog {
	if ls == nil {
		return nil
	}
	return ls.nodes[i]
}

func (ls *callLogs) runtimeLog() *callLog {
	if ls == nil {
		return nil
	}
	return ls.runtime
}

// nodeTimer decorates one node's handler for one layer. handle times
// the layer's handler calls (Init, HandleMessage and upcalls), send the
// Context.Send calls made on the context handed to the layer.
type nodeTimer struct {
	inner              simnet.Handler
	callName, sendName string
	handle, send       acc
	ctx                sendTimer
	log                *callLog
	keep               bool // append every message sent through ctx to sent
	sent               []simnet.Message
}

func (h *nodeTimer) done(a *acc, name string, start int64) {
	end := nowNs()
	a.calls++
	a.ns += end - start
	h.log.add(name, start, end)
}

// wrap returns the decorated form of ctx for one call. The sendTimer is
// reused: a context is only valid for the call it was passed to.
func (h *nodeTimer) wrap(ctx simnet.Context) simnet.Context {
	h.ctx.h, h.ctx.inner = h, ctx
	_, timers := ctx.(simnet.TimerSetter)
	_, observable := ctx.(simnet.Observable)
	switch {
	case timers && observable:
		return timerObsCtx{&h.ctx}
	case timers:
		return timerCtx{&h.ctx}
	case observable:
		return obsCtx{&h.ctx}
	}
	return &h.ctx
}

// sendTimer is the decorated Context: it times Send.
type sendTimer struct {
	h     *nodeTimer
	inner simnet.Context
}

func (c *sendTimer) ID() int       { return c.inner.ID() }
func (c *sendTimer) Halt()         { c.inner.Halt() }
func (c *sendTimer) Time() float64 { return c.inner.Time() }

func (c *sendTimer) Send(to int, msg simnet.Message) {
	h := c.h
	if h.keep {
		h.sent = append(h.sent, msg)
	}
	start := nowNs()
	c.inner.Send(to, msg)
	h.done(&h.send, h.sendName, start)
}

type timerCtx struct{ *sendTimer }

func (c timerCtx) SetTimer(d float64, msg simnet.Message) {
	c.inner.(simnet.TimerSetter).SetTimer(d, msg)
}

type obsCtx struct{ *sendTimer }

func (c obsCtx) Observer() *obs.Recorder { return c.inner.(simnet.Observable).Observer() }

type timerObsCtx struct{ *sendTimer }

func (c timerObsCtx) SetTimer(d float64, msg simnet.Message) {
	c.inner.(simnet.TimerSetter).SetTimer(d, msg)
}

func (c timerObsCtx) Observer() *obs.Recorder { return c.inner.(simnet.Observable).Observer() }

// timedHandler is the decorated Handler.
type timedHandler struct{ *nodeTimer }

func (h timedHandler) Init(ctx simnet.Context) {
	start := nowNs()
	h.inner.Init(h.wrap(ctx))
	h.done(&h.handle, h.callName, start)
}

func (h timedHandler) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	start := nowNs()
	h.inner.HandleMessage(h.wrap(ctx), from, msg)
	h.done(&h.handle, h.callName, start)
}

func (h timedHandler) suspect(ctx simnet.Context, peer int, restore bool) {
	start := nowNs()
	if sh := h.inner.(simnet.SuspectHandler); restore {
		sh.HandleRestore(h.wrap(ctx), peer)
	} else {
		sh.HandleSuspect(h.wrap(ctx), peer)
	}
	h.done(&h.handle, h.callName, start)
}

func (h timedHandler) linkDown(ctx simnet.Context, peer int) {
	start := nowNs()
	h.inner.(simnet.LinkDownHandler).HandleLinkDown(h.wrap(ctx), peer)
	h.done(&h.handle, h.callName, start)
}

type suspectHandler struct{ timedHandler }

func (h suspectHandler) HandleSuspect(ctx simnet.Context, peer int) { h.suspect(ctx, peer, false) }
func (h suspectHandler) HandleRestore(ctx simnet.Context, peer int) { h.suspect(ctx, peer, true) }

type linkDownHandler struct{ timedHandler }

func (h linkDownHandler) HandleLinkDown(ctx simnet.Context, peer int) { h.linkDown(ctx, peer) }

type suspectLinkDownHandler struct{ timedHandler }

func (h suspectLinkDownHandler) HandleSuspect(ctx simnet.Context, peer int) {
	h.suspect(ctx, peer, false)
}
func (h suspectLinkDownHandler) HandleRestore(ctx simnet.Context, peer int) {
	h.suspect(ctx, peer, true)
}
func (h suspectLinkDownHandler) HandleLinkDown(ctx simnet.Context, peer int) { h.linkDown(ctx, peer) }

// handler returns the decorator with exactly the inner handler's
// optional interfaces.
func (h *nodeTimer) handler() simnet.Handler {
	t := timedHandler{h}
	_, suspects := h.inner.(simnet.SuspectHandler)
	_, linkDowns := h.inner.(simnet.LinkDownHandler)
	switch {
	case suspects && linkDowns:
		return suspectLinkDownHandler{t}
	case suspects:
		return suspectHandler{t}
	case linkDowns:
		return linkDownHandler{t}
	}
	return t
}

// layer is one protocol layer's decorators across all nodes.
type layer struct {
	name  string
	nodes []*nodeTimer
}

// decorate wraps every handler of one layer. name prefixes the per-call
// span names ("lid.call", "lid.send").
func decorate(name string, hs []simnet.Handler, logs *callLogs) (*layer, []simnet.Handler) {
	l := &layer{name: name, nodes: make([]*nodeTimer, len(hs))}
	out := make([]simnet.Handler, len(hs))
	for i, h := range hs {
		t := &nodeTimer{inner: h, callName: name + ".call", sendName: name + ".send", log: logs.node(i)}
		l.nodes[i] = t
		out[i] = t.handler()
	}
	return l, out
}

// totals sums the layer's accumulators over all nodes.
func (l *layer) totals() (handle, send acc) {
	for _, t := range l.nodes {
		handle.add(t.handle)
		send.add(t.send)
	}
	return handle, send
}

// annotate attaches the layer's totals to a span (the run span).
func (l *layer) annotate(tr *tracer, id int) {
	handle, send := l.totals()
	tr.arg(id, l.name+".call_count", float64(handle.calls))
	tr.arg(id, l.name+".call_ns", float64(handle.ns))
	tr.arg(id, l.name+".send_count", float64(send.calls))
	tr.arg(id, l.name+".send_ns", float64(send.ns))
}

// selfTimes attributes the time of a layer stack, outermost first, to
// each layer's own code: self_i = (T_i − T_i+1) − (S_i − S_i+1), where
// T is a layer's handler time and S the time of the sends made on the
// context handed to it. A send made by an inner layer passes through
// the contexts of every layer above it, so S_i − S_i+1 is the runtime's
// share of layer i's own sends, which T_i − T_i+1 still contains; and
// S_i+1 minus the runtime's share is layer i's code run inside the inner
// layer's sends, which T_i+1 holds but layer i executed.
func selfTimes(stack []*layer) []int64 {
	self := make([]int64, len(stack))
	for i := range stack {
		t, s := stack[i].totals()
		var tIn, sIn acc
		if i+1 < len(stack) {
			tIn, sIn = stack[i+1].totals()
		}
		self[i] = (t.ns - tIn.ns) - (s.ns - sIn.ns)
	}
	return self
}

// timedAdmitter decorates a simnet.Admitter (which has no optional
// interfaces) and times NextBatch. The event Runner calls it from its
// single thread.
type timedAdmitter struct {
	inner simnet.Admitter
	next  acc
	log   *callLog
}

func (a *timedAdmitter) NextBatch() []int {
	start := nowNs()
	b := a.inner.NextBatch()
	end := nowNs()
	a.next.calls++
	a.next.ns += end - start
	a.log.add("scheduler.next_batch", start, end)
	return b
}
