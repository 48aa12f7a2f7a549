package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below must list exactly the metrics BENCHMARK.json declares
// (bench_test.go checks both ways).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, printed with -trace 0.
// Every workload reports every one of them; an "operation" is one full
// matching on the matching workloads and one repair epoch on
// churn-repair, a "sample" one matching or one membership feed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"msgs_per_node", "count"},
	{"cpu_ms_per_sample", "ms"},
	{"alloc_mb_per_sample", "MB"},
	{"heap_mb", "MB"},
}

// perLayer is printed with -trace 1, from the traced pass. A layer a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"gen.graph_s", "s"},
	{"pref.build_s", "s"},
	{"workload.build_s", "s"},
	{"satisfaction.table_w1_s", "s"},
	{"satisfaction.table_w2_s", "s"},
	{"satisfaction.table_speedup_w2", "ratio"},
	{"matching.lic_w1_s", "s"},
	{"matching.lic_w2_s", "s"},
	{"matching.lic_speedup_w2", "ratio"},
	{"check.verify_s", "s"},
	{"check.failed_frac", "ratio"},
	{"lid.new_nodes_s", "s"},
	{"lid.handler_self_s", "s"},
	{"lid.handler_calls", "count"},
	{"lid.ns_per_call", "ns"},
	{"lid.prop_msgs", "count"},
	{"lid.rej_msgs", "count"},
	{"lid.locks_per_msg", "ratio"},
	{"lid.build_matching_s", "s"},
	{"scheduler.build_s", "s"},
	{"scheduler.next_batch_s", "s"},
	{"scheduler.calls", "count"},
	{"scheduler.share_of_run", "ratio"},
	{"scheduler.rounds", "count"},
	{"scheduler.admitted", "count"},
	{"scheduler.early_stops", "count"},
	{"scheduler.stale_reinserts", "count"},
	{"scheduler.msgs_saved_frac", "ratio"},
	{"scheduler.ns_per_saved_msg", "ns"},
	{"simnet.run_s", "s"},
	{"simnet.self_s", "s"},
	{"simnet.send_s", "s"},
	{"simnet.deliveries", "count"},
	{"simnet.ns_per_delivery", "ns"},
	{"simnet.timers_fired", "count"},
	{"simnet.admission_batches", "count"},
	{"simnet.virtual_rounds", "vt"},
	{"simnet.bytes_per_node", "B"},
	{"reliable.self_s", "s"},
	{"reliable.frames", "count"},
	{"reliable.acks", "count"},
	{"reliable.retransmits", "count"},
	{"reliable.retransmit_frac", "ratio"},
	{"reliable.duplicates", "count"},
	{"detector.self_s", "s"},
	{"detector.hb_frames", "count"},
	{"transport.cluster_boot_s", "s"},
	{"transport.send_s", "s"},
	{"transport.encode_ns_per_frame", "ns"},
	{"transport.decode_ns_per_frame", "ns"},
	{"transport.frames_per_datagram", "ratio"},
	{"transport.bytes_per_datagram", "B"},
	{"transport.bytes_per_node", "B"},
	{"transport.datagrams_per_node", "count"},
	{"transport.dropped", "count"},
	{"transport.all_halted_s", "s"},
	{"transport.quiesce_tail_s", "s"},
	{"dynamic.new_engine_s", "s"},
	{"dynamic.epochs", "count"},
	{"dynamic.batch_mean", "count"},
	{"dynamic.region_mean", "count"},
	{"dynamic.rounds_mean", "count"},
	{"dynamic.retries", "count"},
	{"dynamic.prefix_skipped", "count"},
	{"dynamic.drain_s", "s"},
	{"dynamic.virtual_latency_p50", "vt"},
	{"dynamic.repair_p99_us", "us"},
	{"machine.calib_ms", "ms"},
	{"raw.setup_s", "s"},
	{"raw.latency_p50_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a bypassed layer divides nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// meter measures one sample's measured part: wall clock, process CPU
// (every goroutine, the UDP cluster's included), bytes allocated and
// garbage collections.
type meter struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

func (m *meter) stop(r *sampleResult) {
	r.wall = time.Since(m.start)
	r.cpu = cpuTime() - m.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - m.mem.TotalAlloc
	r.gcs = after.NumGC - m.mem.NumGC
	r.gcPause = time.Duration(after.PauseTotalNs - m.mem.PauseTotalNs)
}

// cpuTime is the process's user plus system CPU time. Getrusage fails
// only for an invalid "who" or buffer, neither possible here.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
