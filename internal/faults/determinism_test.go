package faults

import (
	"bytes"
	"testing"

	"overlaymatch/internal/lid"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// runTraced executes one reliable-wrapped LID run on the event runtime
// under (seed, spec, faultSeed) and returns the recorder's NDJSON log:
// every send (dropped ones included) and delivery, plus the protocol
// spans.
func runTraced(t *testing.T, w WorkloadSpec, seed uint64, spec Spec, faultSeed uint64) []byte {
	t.Helper()
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(sys)
	nodes := lid.NewNodes(sys, tbl)
	eps := reliable.Wrap(lid.Handlers(nodes), 30, 0)
	rec := obs.NewRecorder(sys.Graph().NumNodes())
	runner := simnet.NewRunner(sys.Graph().NumNodes(), simnet.Options{
		Seed:    seed,
		Latency: simnet.ExponentialLatency(4),
		Policy:  NewInjector(spec, faultSeed),
		Obs:     rec,
	})
	if _, err := runner.Run(reliable.Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFaultTraceDeterminism is the golden determinism check: a
// fixed (seed, FaultSpec) pair yields a byte-identical NDJSON send and
// delivery trace run-over-run on the event runtime — the property the whole
// record/replay design rests on.
func TestGoldenFaultTraceDeterminism(t *testing.T) {
	w := WorkloadSpec{Topology: "geometric", Metric: "distance", N: 40, B: 2, Seed: 11}
	spec := Spec{Drop: 0.12, Dup: 0.08, Corrupt: 0.04, Delay: 0.2, DelayScale: 5,
		Partitions: []Partition{{Start: 8, End: 60, Lo: 0, Hi: 12}}}
	first := runTraced(t, w, 99, spec, injectionSeed(99))
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
	for i := 0; i < 3; i++ {
		if got := runTraced(t, w, 99, spec, injectionSeed(99)); !bytes.Equal(got, first) {
			t.Fatalf("run %d: trace differs from first run", i+2)
		}
	}
	// A different fault seed must actually change the schedule,
	// otherwise the determinism above is vacuous.
	if got := runTraced(t, w, 99, spec, injectionSeed(100)); bytes.Equal(got, first) {
		t.Fatal("changing the fault seed left the trace unchanged")
	}
}

// TestZeroSpecMatchesNilPolicy pins the hook's no-op guarantee at the
// trace level: a zero-spec injector and no policy at all produce
// byte-identical NDJSON send and delivery traces (the injector draws nothing from any
// stream the runner uses).
func TestZeroSpecMatchesNilPolicy(t *testing.T) {
	w := WorkloadSpec{Topology: "gnp", Metric: "random", N: 30, B: 2, Seed: 4}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(policy simnet.LinkPolicy) []byte {
		tbl := satisfaction.NewTable(sys)
		nodes := lid.NewNodes(sys, tbl)
		rec := obs.NewRecorder(sys.Graph().NumNodes())
		runner := simnet.NewRunner(sys.Graph().NumNodes(), simnet.Options{
			Seed:    7,
			Latency: simnet.ExponentialLatency(4),
			Policy:  policy,
			Obs:     rec,
		})
		if _, err := runner.Run(lid.Handlers(nodes)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	withNil := run(nil)
	withZero := run(NewInjector(Spec{}, 123))
	if !bytes.Equal(withNil, withZero) {
		t.Fatal("zero-spec policy perturbed the run")
	}
}
