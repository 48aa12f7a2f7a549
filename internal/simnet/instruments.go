package simnet

import (
	"overlaymatch/internal/metrics"
)

// instruments is the Runner's registry-backed counter set. Each run
// owns a private registry (so per-run Stats stay exact even when many
// runs execute in one process); a caller-supplied sink registry, if
// any, receives a Merge of the private registry when the run finishes. Stats (the public result struct) is built as a
// snapshot view over these instruments, which keeps the experiment
// tables bit-identical to the pre-registry implementation.
type instruments struct {
	reg            *metrics.Registry
	deliveries     *metrics.Counter
	dropped        *metrics.Counter
	timersFired    *metrics.Counter
	timersStopped  *metrics.Counter
	sent           *metrics.Family
	sentByNode     *metrics.Vector
	receivedByNode *metrics.Vector
	sentBytes      *metrics.Counter
	bytesByKind    *metrics.Family
	finalTime      *metrics.Gauge
	queueDepthMax  *metrics.Gauge
	sendLatency    *metrics.Histogram
	faults         *metrics.Family
}

func newInstruments(n int) *instruments {
	reg := metrics.New()
	return &instruments{
		reg:            reg,
		deliveries:     reg.Counter("simnet_deliveries_total", "network messages delivered"),
		dropped:        reg.Counter("simnet_dropped_total", "messages dropped by the link policy"),
		timersFired:    reg.Counter("simnet_timers_fired_total", "local timer deliveries"),
		timersStopped:  reg.Counter("simnet_timers_stopped_total", "timers stopped before delivery"),
		sent:           reg.Family("simnet_sent_total", "messages sent by protocol kind", "kind"),
		sentBytes:      reg.Counter("simnet_sent_bytes_total", "encoded frame bytes sent, header included"),
		bytesByKind:    reg.Family("simnet_sent_bytes_by_kind", "encoded frame bytes sent by protocol kind", "kind"),
		sentByNode:     reg.Vector("simnet_sent_by_node", "messages sent per node", n),
		receivedByNode: reg.Vector("simnet_received_by_node", "messages delivered per node", n),
		finalTime:      reg.Gauge("simnet_final_time", "virtual time of the last delivery (event runtime)"),
		queueDepthMax:  reg.Gauge("simnet_queue_depth_max", "high-water mark of the event queue depth"),
		sendLatency:    reg.Histogram("simnet_send_latency", "per-message link latency in virtual time units (event runtime)", nil),
		faults:         reg.Family("simnet_fault_injections_total", "fault injections applied by the link policy", "kind"),
	}
}

// countSend records one network send's kind and encoded frame size.
func (ins *instruments) countSend(node int, kind string, size int) {
	ins.sentByNode.Inc(node)
	ins.sent.With(kind).Inc()
	ins.sentBytes.Add(int64(size))
	ins.bytesByKind.With(kind).Add(int64(size))
}

// sentTotals reads the cumulative (messages, bytes) send counters —
// the per-probe traffic attribution of the stability prober. Called at
// probe frequency, never per message.
func (ins *instruments) sentTotals() (msgs, bytes int64) {
	for _, v := range ins.sentByNode.Values() {
		msgs += v
	}
	return msgs, ins.sentBytes.Value()
}

// countVerdict records one applied link-policy verdict by kind; a zero
// verdict records nothing.
func (ins *instruments) countVerdict(v LinkVerdict) {
	if v.Drop {
		ins.faults.With("drop").Inc()
		return
	}
	if v.Copies > 0 {
		ins.faults.With("dup").Inc()
	}
	if v.ExtraDelay > 0 {
		ins.faults.With("delay").Inc()
	}
	if v.Corrupt {
		ins.faults.With("corrupt").Inc()
	}
}

// stats builds the public Stats snapshot view from the instruments.
func (ins *instruments) stats() Stats {
	sentVals := ins.sentByNode.Values()
	recvVals := ins.receivedByNode.Values()
	s := Stats{
		SentByNode:     make([]int, len(sentVals)),
		ReceivedByNode: make([]int, len(recvVals)),
		SentByKind:     make(map[string]int),
		FinalTime:      ins.finalTime.Value(),
		Deliveries:     int(ins.deliveries.Value()),
		Dropped:        int(ins.dropped.Value()),
		TimersFired:    int(ins.timersFired.Value()),
		TimersStopped:  int(ins.timersStopped.Value()),
	}
	for i, v := range sentVals {
		s.SentByNode[i] = int(v)
	}
	for i, v := range recvVals {
		s.ReceivedByNode[i] = int(v)
	}
	for kind, c := range ins.sent.Counts() {
		s.SentByKind[kind] = int(c)
	}
	return s
}

// mergeInto folds the private registry into a caller-supplied sink
// (nil-safe).
func (ins *instruments) mergeInto(sink *metrics.Registry) {
	if sink != nil {
		sink.Merge(ins.reg.Snapshot())
	}
}
