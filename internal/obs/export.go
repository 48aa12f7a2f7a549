package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ndjsonEvent is the wire schema of one WriteNDJSON record. Optional
// fields are omitted so the common send/deliver records stay short.
type ndjsonEvent struct {
	Seq     int     `json:"seq"`
	Type    string  `json:"type"`
	Node    int     `json:"node"`
	Peer    *int    `json:"peer,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Time    float64 `json:"t"`
	Lam     uint64  `json:"lam"`
	SendLam uint64  `json:"send_lam,omitempty"`
	Span    uint64  `json:"span,omitempty"`
}

// WriteNDJSON renders the log as newline-delimited JSON, one event per
// line in record order — the machine-readable causal trace. On the
// event runtime the bytes are a pure function of (workload, seed),
// independent of -workers (golden-tested in internal/lid).
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		rec := ndjsonEvent{
			Seq: e.Seq, Type: e.Type.String(), Node: e.Node,
			Kind: e.Kind, Detail: e.Detail, Time: e.Time,
			Lam: e.Lam, SendLam: e.SendLam, Span: uint64(e.Span),
		}
		if e.Type == EvSend || e.Type == EvDeliver {
			peer := e.Peer
			rec.Peer = &peer
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// flowID builds the Chrome-trace flow id binding a send to its
// delivery: the sender's id and Lamport stamp, unique because every
// send ticks the sender's clock.
func flowID(sender int, lam uint64) uint64 {
	return uint64(sender)<<32 | (lam & 0xffffffff)
}

// chromeTS maps an event to a trace timestamp in microseconds. The
// event runtime provides virtual time; the goroutine runtime has no
// clock (all times 0), so record order stands in for time there.
func chromeTS(e Event, useSeq bool) float64 {
	if useSeq {
		return float64(e.Seq)
	}
	return e.Time * 1e6
}

// WriteChromeTrace renders the log in the Chrome trace-event JSON
// format (load in Perfetto or chrome://tracing): one track (tid) per
// node, spans as B/E duration slices, sends/delivers as instant
// events connected by s/f flow arrows, points as instants.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	useSeq := true
	for _, e := range events {
		if e.Time > 0 {
			useSeq = false
			break
		}
	}
	// Span kinds live on the open event; closes reference it by id.
	openKind := make(map[SpanID]string)
	type traceEvent struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		TS   float64                `json:"ts"`
		ID   string                 `json:"id,omitempty"`
		S    string                 `json:"s,omitempty"`
		BP   string                 `json:"bp,omitempty"`
		Args map[string]interface{} `json:"args,omitempty"`
	}
	out := make([]traceEvent, 0, 2*len(events))
	for _, e := range events {
		te := traceEvent{Name: e.Kind, Pid: 0, Tid: e.Node, TS: chromeTS(e, useSeq)}
		args := map[string]interface{}{"lam": e.Lam}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		switch e.Type {
		case EvSend:
			args["to"] = e.Peer
			te.Ph, te.Args = "i", args
			te.S = "t"
			out = append(out, te)
			flow := te
			flow.Ph, flow.S, flow.Args = "s", "", nil
			flow.ID = fmt.Sprintf("0x%x", flowID(e.Node, e.Lam))
			out = append(out, flow)
		case EvDeliver:
			args["from"] = e.Peer
			te.Ph, te.Args = "i", args
			te.S = "t"
			out = append(out, te)
			if e.SendLam != 0 {
				flow := te
				flow.Ph, flow.S, flow.Args = "f", "", nil
				flow.BP = "e"
				flow.ID = fmt.Sprintf("0x%x", flowID(e.Peer, e.SendLam))
				out = append(out, flow)
			}
		case EvOpen:
			openKind[e.Span] = e.Kind
			te.Ph, te.Args = "B", args
			out = append(out, te)
		case EvClose:
			te.Name = openKind[e.Span]
			te.Ph, te.Args = "E", args
			out = append(out, te)
		case EvPoint:
			te.Ph, te.S, te.Args = "i", "t", args
			out = append(out, te)
		}
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": out})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteSpanTree renders a nested text dump, one section per node that
// recorded anything: spans indent by nesting depth with their open and
// close times and Lamport interval; points and message events print at
// the current depth. The quick human-readable view of an execution.
func (r *Recorder) WriteSpanTree(w io.Writer) error {
	events := r.Events()
	byNode := map[int][]Event{}
	for _, e := range events {
		byNode[e.Node] = append(byNode[e.Node], e)
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	closeOf := make(map[SpanID]Event)
	for _, e := range events {
		if e.Type == EvClose {
			closeOf[e.Span] = e
		}
	}
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "node %d\n", n)
		depth := 1
		for _, e := range byNode[n] {
			indent := strings.Repeat("  ", depth)
			switch e.Type {
			case EvOpen:
				if c, ok := closeOf[e.Span]; ok {
					fmt.Fprintf(&b, "%s%s%s [%.3f, %.3f] lam=%d..%d", indent, e.Kind, detailSuffix(e), e.Time, c.Time, e.Lam, c.Lam)
					if c.Detail != "" {
						fmt.Fprintf(&b, " -> %s", c.Detail)
					}
					b.WriteByte('\n')
				} else {
					fmt.Fprintf(&b, "%s%s%s [%.3f, ...] lam=%d.. (unclosed)\n", indent, e.Kind, detailSuffix(e), e.Time, e.Lam)
				}
				depth++
			case EvClose:
				if depth > 1 {
					depth--
				}
			case EvSend:
				fmt.Fprintf(&b, "%s-> %d %s @%.3f lam=%d\n", indent, e.Peer, e.Kind, e.Time, e.Lam)
			case EvDeliver:
				fmt.Fprintf(&b, "%s<- %d %s @%.3f lam=%d (send lam=%d)\n", indent, e.Peer, e.Kind, e.Time, e.Lam, e.SendLam)
			case EvPoint:
				fmt.Fprintf(&b, "%s* %s%s @%.3f lam=%d\n", indent, e.Kind, detailSuffix(e), e.Time, e.Lam)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func detailSuffix(e Event) string {
	if e.Detail == "" {
		return ""
	}
	return "(" + e.Detail + ")"
}

// WriteLog renders the message-sequence view: one line per delivery in
// record order, e.g. "   3.420     7 -> 12   PROP". Sends, spans and
// points are left out; on the goroutine runtime every time is 0 and the
// line order is the sequence.
func (r *Recorder) WriteLog(w io.Writer) error {
	var b strings.Builder
	for _, e := range r.Events() {
		if e.Type == EvDeliver {
			fmt.Fprintf(&b, "%8.3f  %4d -> %-4d %s\n", e.Time, e.Peer, e.Node, e.Kind)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFormat dispatches on a -trace-spans-format flag value:
// "ndjson", "chrome", "tree", or "log".
func (r *Recorder) WriteFormat(w io.Writer, format string) error {
	switch format {
	case "", "ndjson":
		return r.WriteNDJSON(w)
	case "chrome":
		return r.WriteChromeTrace(w)
	case "tree":
		return r.WriteSpanTree(w)
	case "log":
		return r.WriteLog(w)
	}
	return fmt.Errorf("obs: unknown span format %q (want ndjson, chrome, tree or log)", format)
}
