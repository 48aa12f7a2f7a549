package simnet

import (
	"overlaymatch/internal/metrics"
)

// instruments is the Runner's counter set: the Counts every runtime
// keeps, plus the series only a virtual clock has. A Runner is
// single-threaded, so every count is a plain field: publish folds them
// into the run's private registry once, when Run returns, and Stats is
// built from them. The admission-batch counter (see Run) is a registry
// instrument from the start; it is not updated per message.
type instruments struct {
	Counts
	reg *metrics.Registry

	finalTime     float64
	queueDepthMax int
	// The send-latency histogram over metrics.DefBuckets: latency[i]
	// counts samples in bucket i, the last bucket being the overflow.
	latency    []int64
	latencyN   int64
	latencySum float64
}

func newInstruments(n int) instruments {
	return instruments{
		Counts: Counts{
			SentByNode:     make([]int, n),
			ReceivedByNode: make([]int, n),
		},
		reg:     metrics.New(),
		latency: make([]int64, len(metrics.DefBuckets)+1),
	}
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

// publish folds the event-runtime series into the private registry,
// then publishes the shared counts there and into a caller-supplied
// sink (nil-safe). It runs once per Runner.
func (ins *instruments) publish(sink *metrics.Registry) {
	reg := ins.reg
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
	ins.Counts.Publish(reg, sink)
}
