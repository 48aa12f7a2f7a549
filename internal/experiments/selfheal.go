package experiments

import (
	"fmt"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dlid"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/matching"
	mreg "overlaymatch/internal/metrics"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// e16Window is the healing crash window swept by E16: the victim is
// silenced at Start and comes back at End, well before quiescence.
const (
	e16CrashStart = 40.0
	e16CrashEnd   = 260.0
)

// E16SelfHealing: the self-healing overlay (dlid Rematch + heartbeat
// failure detection, see dlid.RunSelfHeal) through healing crash
// windows. Per (topology, b) the highest-degree matched node is cut
// off during [40, 260): the detector must suspect it on both sides,
// the survivors repair around it, and the HELLO resync after the heal
// must re-knit the overlay into exactly the LIC matching of the full
// topology — a hard error otherwise, mirroring E15's equivalence
// enforcement. The sweep reports detection latency (virtual time from
// the cut to each monitor's first suspicion of the victim), the
// repair bill (protocol frames beyond heartbeat traffic — an idle
// Rematch overlay sends none), and the detector verdict counts.
//
// The second table is the zero-fault control: the same workloads with
// the detector on but no adversary must produce zero suspicions and a
// matching byte-identical to a detector-free run — the monitoring
// layer is observationally free when nothing fails.
func E16SelfHealing(cfg Config) ([]*stats.Table, error) {
	sweep := stats.NewTable("E16: self-healing under crash windows (cut [40,260), Rematch + detector)",
		"topology", "b", "runs", "healed = LIC", "suspicions", "restores", "false susp",
		"synth byes", "resyncs", "detect latency", "repair frames")
	control := stats.NewTable("E16 control: zero faults, detector on vs off",
		"topology", "b", "runs", "false suspicions", "identical matching", "hb frames")
	n := cfg.pick(30, 80)
	runs := cfg.pick(2, 5)
	for _, topo := range suiteTopologies {
		for b := 1; b <= 3; b++ {
			var (
				equal, suspicions, restores, synthByes, resyncs, repairFrames int
				latSum                                                        float64
				latN                                                          int
			)
			// vreg accumulates the registry-scored verdicts of the cell:
			// every suspicion is checked against the crash-window ground
			// truth (faults.Spec.NodeDownAt). The victim's own mirror-image
			// suspicions of its healthy neighbors land in the false column.
			vreg := mreg.New()
			for r := 0; r < runs; r++ {
				sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: b, Seed: cfg.Seed ^ uint64(16*n) ^ uint64(r)*7919}.Build()
				if err != nil {
					return nil, err
				}
				tbl := satisfaction.NewTable(sys)
				lic := matching.LIC(sys, tbl)
				crash := 0
				for i := 1; i < sys.Graph().NumNodes(); i++ {
					if lic.DegreeOf(i) > lic.DegreeOf(crash) {
						crash = i
					}
				}
				spec := faults.Spec{Crashes: []faults.Crash{
					{Start: e16CrashStart, End: e16CrashEnd, Node: crash}}}
				res, err := dlid.RunSelfHeal(sys, tbl, dlid.SelfHealConfig{
					Mode:    dlid.Rematch,
					Stack:   stack.Spec{Detector: detector.Default()},
					Metrics: cfg.Metrics,
				}, nil, simnet.Options{
					Seed:    cfg.Seed + uint64(r)*131 + 16,
					Latency: simnet.ExponentialLatency(0.5),
					Policy:  faults.NewInjector(spec, cfg.Seed+uint64(r)*104729),
				})
				if err != nil {
					return nil, fmt.Errorf("E16 %s/b=%d run %d: %w", topo, b, r, err)
				}
				if res.Live.Equal(lic) {
					equal++
				}
				suspicions += res.Suspicions
				restores += res.Restores
				synthByes += res.SynthByes
				resyncs += res.Resyncs
				detector.PublishVerdicts(vreg, res.Monitors, spec.NodeDownAt)
				detector.PublishVerdicts(cfg.Metrics, res.Monitors, spec.NodeDownAt)
				for _, mon := range res.Monitors {
					for _, ev := range mon.Events {
						if ev.Peer == crash && !ev.Restore && ev.Time >= e16CrashStart {
							latSum += ev.Time - e16CrashStart
							latN++
							break
						}
					}
				}
				for kind, cnt := range res.Stats.SentByKind {
					if kind != "HB" && kind != "HB-ACK" {
						repairFrames += cnt
					}
				}
			}
			lat := 0.0
			if latN > 0 {
				lat = latSum / float64(latN)
			}
			falseSusp := int(vreg.Counter("detector_false_suspicions_total", "").Value())
			if got := int(vreg.Counter("detector_suspicions_total", "").Value()); got != suspicions {
				return nil, fmt.Errorf("E16: %s/b=%d registry counted %d suspicions, monitors say %d",
					topo, b, got, suspicions)
			}
			sweep.AddRowf(topo, b, runs, equal, suspicions, restores, falseSusp,
				synthByes, resyncs, lat, repairFrames/runs)
			if equal != runs {
				return nil, fmt.Errorf("E16: %s/b=%d healed into a non-LIC matching (%d/%d) — repair must converge to the stable greedy state",
					topo, b, equal, runs)
			}
			if suspicions == 0 || resyncs == 0 {
				return nil, fmt.Errorf("E16: %s/b=%d crash went undetected (suspicions=%d resyncs=%d)",
					topo, b, suspicions, resyncs)
			}
		}

		// Zero-fault control at b=2: detector on vs off, same seeds. The
		// zero-false-suspicion gate reads the verdict instruments of a
		// per-control registry (PublishVerdicts with a nil truth function
		// — nothing was ever down, so every suspicion scores false)
		// instead of scraping the monitors' event logs.
		const cb = 2
		creg := mreg.New()
		var identical, hbFrames int
		for r := 0; r < runs; r++ {
			sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: cb, Seed: cfg.Seed ^ uint64(16*n) ^ uint64(r)*7919}.Build()
			if err != nil {
				return nil, err
			}
			tbl := satisfaction.NewTable(sys)
			opts := simnet.Options{
				Seed:    cfg.Seed + uint64(r)*131 + 16,
				Latency: simnet.ExponentialLatency(0.5),
			}
			on, err := dlid.RunSelfHeal(sys, tbl, dlid.SelfHealConfig{
				Mode:  dlid.Rematch,
				Stack: stack.Spec{Detector: detector.Default()},
			}, nil, opts)
			if err != nil {
				return nil, fmt.Errorf("E16 control %s run %d (detector on): %w", topo, r, err)
			}
			off, err := dlid.RunSelfHeal(sys, tbl, dlid.SelfHealConfig{Mode: dlid.Rematch}, nil, opts)
			if err != nil {
				return nil, fmt.Errorf("E16 control %s run %d (detector off): %w", topo, r, err)
			}
			detector.PublishVerdicts(creg, on.Monitors, nil)
			if on.Live.Equal(off.Live) {
				identical++
			}
			hbFrames += on.Stats.SentByKind["HB"] + on.Stats.SentByKind["HB-ACK"]
		}
		falseSusp := int(creg.Counter("detector_false_suspicions_total", "").Value())
		control.AddRowf(topo, cb, runs, falseSusp, identical, hbFrames/runs)
		if falseSusp != 0 {
			return nil, fmt.Errorf("E16 control: %s reported %d suspicions with zero faults",
				topo, falseSusp)
		}
		if identical != runs {
			return nil, fmt.Errorf("E16 control: %s matching changed under monitoring (%d/%d identical) — the detector must be observationally free",
				topo, identical, runs)
		}
	}
	return []*stats.Table{sweep, control}, nil
}
