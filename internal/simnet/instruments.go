package simnet

import (
	"overlaymatch/internal/metrics"
)

// instruments is the Runner's counter set. A Runner is
// single-threaded, so the per-send and per-delivery counts are plain
// fields: publish folds them into the run's private registry once,
// when Run returns, and Stats is built from them. The fault-verdict
// family and the admission-batch counter (see Run) are registry
// instruments from the start; neither is updated per message on a
// clean run.
type instruments struct {
	reg    *metrics.Registry
	faults *metrics.Family

	sentByNode     []int64
	receivedByNode []int64
	kinds          []kindCount // in first-send order; a run has a few kinds
	sent           int64
	sentBytes      int64
	deliveries     int64
	timersFired    int64
	timersStopped  int64
	dropped        int64
	finalTime      float64
	queueDepthMax  int
	// The send-latency histogram over metrics.DefBuckets: latency[i]
	// counts samples in bucket i, the last bucket being the overflow.
	latency    []int64
	latencyN   int64
	latencySum float64
}

// kindCount is the sends and encoded bytes of one message kind.
type kindCount struct {
	kind        string
	msgs, bytes int64
}

func newInstruments(n int) instruments {
	reg := metrics.New()
	return instruments{
		reg:            reg,
		faults:         reg.Family("simnet_fault_injections_total", "fault injections applied by the link policy", "kind"),
		sentByNode:     make([]int64, n),
		receivedByNode: make([]int64, n),
		latency:        make([]int64, len(metrics.DefBuckets)+1),
	}
}

// countSend records one network send's kind and encoded frame size.
func (ins *instruments) countSend(node int, kind string, size int) {
	ins.sentByNode[node]++
	ins.sent++
	ins.sentBytes += int64(size)
	for i := range ins.kinds {
		if k := &ins.kinds[i]; k.kind == kind {
			k.msgs++
			k.bytes += int64(size)
			return
		}
	}
	ins.kinds = append(ins.kinds, kindCount{kind: kind, msgs: 1, bytes: int64(size)})
}

// observeLatency records one link latency, bucketed as
// metrics.Histogram.Observe buckets it.
func (ins *instruments) observeLatency(v float64) {
	i := 0
	for i < len(metrics.DefBuckets) && v > metrics.DefBuckets[i] {
		i++
	}
	ins.latency[i]++
	ins.latencyN++
	ins.latencySum += v
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

// stats builds the public Stats snapshot from the counters.
func (ins *instruments) stats() Stats {
	s := Stats{
		SentByNode:     make([]int, len(ins.sentByNode)),
		ReceivedByNode: make([]int, len(ins.receivedByNode)),
		SentByKind:     make(map[string]int, len(ins.kinds)),
		FinalTime:      ins.finalTime,
		Deliveries:     int(ins.deliveries),
		Dropped:        int(ins.dropped),
		TimersFired:    int(ins.timersFired),
		TimersStopped:  int(ins.timersStopped),
	}
	for i, v := range ins.sentByNode {
		s.SentByNode[i] = int(v)
	}
	for i, v := range ins.receivedByNode {
		s.ReceivedByNode[i] = int(v)
	}
	for _, k := range ins.kinds {
		s.SentByKind[k.kind] = int(k.msgs)
	}
	return s
}

// publish folds the counters into the private registry, then merges
// that registry into a caller-supplied sink (nil-safe). It runs once
// per Runner.
func (ins *instruments) publish(sink *metrics.Registry) {
	reg := ins.reg
	reg.Counter("simnet_deliveries_total", "network messages delivered").Add(ins.deliveries)
	reg.Counter("simnet_dropped_total", "messages dropped by the link policy").Add(ins.dropped)
	reg.Counter("simnet_timers_fired_total", "local timer deliveries").Add(ins.timersFired)
	reg.Counter("simnet_timers_stopped_total", "timers stopped before delivery").Add(ins.timersStopped)
	reg.Counter("simnet_sent_bytes_total", "encoded frame bytes sent, header included").Add(ins.sentBytes)
	sent := reg.Family("simnet_sent_total", "messages sent by protocol kind", "kind")
	bytes := reg.Family("simnet_sent_bytes_by_kind", "encoded frame bytes sent by protocol kind", "kind")
	for _, k := range ins.kinds {
		sent.With(k.kind).Add(k.msgs)
		bytes.With(k.kind).Add(k.bytes)
	}
	sentByNode := reg.Vector("simnet_sent_by_node", "messages sent per node", len(ins.sentByNode))
	receivedByNode := reg.Vector("simnet_received_by_node", "messages delivered per node", len(ins.receivedByNode))
	for i := range ins.sentByNode {
		sentByNode.Add(i, ins.sentByNode[i])
		receivedByNode.Add(i, ins.receivedByNode[i])
	}
	reg.Gauge("simnet_final_time", "virtual time of the last delivery (event runtime)").SetMax(ins.finalTime)
	reg.Gauge("simnet_queue_depth_max", "high-water mark of the event queue depth").SetMax(float64(ins.queueDepthMax))
	// A Merge is the registry's way to add whole histogram buckets.
	reg.Merge(metrics.Snapshot{Samples: []metrics.Sample{{
		Name:         "simnet_send_latency",
		Kind:         metrics.KindHistogram,
		Help:         "per-message link latency in virtual time units (event runtime)",
		Count:        ins.latencyN,
		Value:        ins.latencySum,
		Bounds:       metrics.DefBuckets,
		BucketCounts: ins.latency,
	}}})
	if sink != nil {
		sink.Merge(reg.Snapshot())
	}
}
