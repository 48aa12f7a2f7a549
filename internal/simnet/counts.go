package simnet

import "overlaymatch/internal/metrics"

// Counts is one run's network counters on any runtime: what Stats
// reports and what Publish writes under the simnet_* names. The Runner
// counts into one as it runs; a transport.Cluster sums its nodes'
// counters into one when it stops.
type Counts struct {
	// SentByNode and ReceivedByNode are shared with the Stats built
	// from the Counts, not copied: count nothing after building one.
	SentByNode     []int
	ReceivedByNode []int
	Kinds          KindCounts
	Deliveries     int64
	TimersFired    int64
	TimersStopped  int64
	// Dropped counts frames the link policy dropped.
	Dropped int64
	Faults  VerdictCounts
}

// KindCount is the sends and encoded frame bytes of one message kind.
type KindCount struct {
	Kind        string
	Msgs, Bytes int64
}

// KindCounts is a run's sends by kind, in first-send order. A run
// sends a few kinds, so a scanned slice beats a map.
type KindCounts []KindCount

// Add counts msgs sends of kind, bytes encoded bytes in all.
func (ks *KindCounts) Add(kind string, msgs, bytes int64) {
	for i := range *ks {
		if k := &(*ks)[i]; k.Kind == kind {
			k.Msgs += msgs
			k.Bytes += bytes
			return
		}
	}
	*ks = append(*ks, KindCount{Kind: kind, Msgs: msgs, Bytes: bytes})
}

// VerdictCounts counts applied link-policy verdicts by fault kind.
type VerdictCounts struct {
	Drop, Dup, Delay, Corrupt int64
}

// Add records one verdict; a zero verdict records nothing, and a drop
// records only the drop.
func (c *VerdictCounts) Add(v LinkVerdict) {
	if v.Drop {
		c.Drop++
		return
	}
	if v.Copies > 0 {
		c.Dup++
	}
	if v.ExtraDelay > 0 {
		c.Delay++
	}
	if v.Corrupt {
		c.Corrupt++
	}
}

// sentTotals returns the messages sent and their encoded bytes.
func (c *Counts) sentTotals() (msgs, bytes int64) {
	for _, k := range c.Kinds {
		msgs += k.Msgs
		bytes += k.Bytes
	}
	return msgs, bytes
}

// Stats builds the public Stats from the counters.
func (c *Counts) Stats(finalTime float64) Stats {
	s := Stats{
		SentByNode:     c.SentByNode,
		ReceivedByNode: c.ReceivedByNode,
		SentByKind:     make(map[string]int, len(c.Kinds)),
		FinalTime:      finalTime,
		Deliveries:     int(c.Deliveries),
		Dropped:        int(c.Dropped),
		TimersFired:    int(c.TimersFired),
		TimersStopped:  int(c.TimersStopped),
	}
	for _, k := range c.Kinds {
		s.SentByKind[k.Kind] += int(k.Msgs)
	}
	return s
}

// Publish writes the counters into reg, the run's private registry,
// under the simnet_* names every runtime shares, then merges reg into
// sink (nil-safe). Merge carries no vector, so the per-node series
// stay in reg and never reach a sink shared by runs of other sizes.
func (c *Counts) Publish(reg, sink *metrics.Registry) {
	reg.Counter("simnet_deliveries_total", "network messages delivered").Add(c.Deliveries)
	reg.Counter("simnet_dropped_total", "messages dropped by the link policy").Add(c.Dropped)
	reg.Counter("simnet_timers_fired_total", "local timer deliveries").Add(c.TimersFired)
	reg.Counter("simnet_timers_stopped_total", "timers stopped before delivery").Add(c.TimersStopped)
	sent := reg.Family("simnet_sent_total", "messages sent by protocol kind", "kind")
	bytes := reg.Family("simnet_sent_bytes_by_kind", "encoded frame bytes sent by protocol kind", "kind")
	for _, k := range c.Kinds {
		sent.With(k.Kind).Add(k.Msgs)
		bytes.With(k.Kind).Add(k.Bytes)
	}
	_, total := c.sentTotals()
	reg.Counter("simnet_sent_bytes_total", "encoded frame bytes sent, header included").Add(total)
	sentByNode := reg.Vector("simnet_sent_by_node", "messages sent per node", len(c.SentByNode))
	for i, v := range c.SentByNode {
		sentByNode.Add(i, int64(v))
	}
	receivedByNode := reg.Vector("simnet_received_by_node", "messages delivered per node", len(c.ReceivedByNode))
	for i, v := range c.ReceivedByNode {
		receivedByNode.Add(i, int64(v))
	}
	faults := reg.Family("simnet_fault_injections_total", "fault injections applied by the link policy", "kind")
	for kind, n := range map[string]int64{"drop": c.Faults.Drop, "dup": c.Faults.Dup, "delay": c.Faults.Delay, "corrupt": c.Faults.Corrupt} {
		if n > 0 {
			faults.With(kind).Add(n)
		}
	}
	if sink != nil {
		sink.Merge(reg.Snapshot())
	}
}
