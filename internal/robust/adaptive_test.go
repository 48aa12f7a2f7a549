package robust

import (
	"testing"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/transport"
)

// TestAdaptiveTimeoutTightens exercises the arming rule directly: with
// no estimator or too few samples the static timeout rules; once the
// window holds samples the phi threshold takes over, and the static
// timeout stays a hard ceiling.
func TestAdaptiveTimeoutTightens(t *testing.T) {
	s := randomSystem(t, 1, 8, 0.6, 2)
	tbl := satisfaction.NewTable(s)
	n := NewTolerantNode(s, tbl, 0, 1000)

	if got := n.proposalTimeout(); got != 1000 {
		t.Fatalf("nil estimator: timeout %v, want static 1000", got)
	}

	est := detector.NewEstimator(64, 0.5)
	n.SetAdaptiveTimeout(est, 8)
	if got := n.proposalTimeout(); got != 1000 {
		t.Fatalf("empty estimator: timeout %v, want static 1000", got)
	}
	for i := 0; i < adaptiveMinSamples-1; i++ {
		est.Observe(3)
	}
	if got := n.proposalTimeout(); got != 1000 {
		t.Fatalf("below min samples: timeout %v, want static 1000", got)
	}
	est.Observe(3)
	got := n.proposalTimeout()
	if got >= 1000 {
		t.Fatalf("armed estimator with tight samples: timeout %v did not tighten below 1000", got)
	}
	if got <= 3 {
		t.Fatalf("adaptive timeout %v at or below the observed response time 3", got)
	}
	if n.AdaptiveArms != 1 {
		t.Fatalf("AdaptiveArms = %d, want 1", n.AdaptiveArms)
	}

	// A huge threshold must be clamped by the static ceiling.
	loose := NewTolerantNode(s, tbl, 0, 5)
	lest := detector.NewEstimator(64, 0.5)
	loose.SetAdaptiveTimeout(lest, 8)
	for i := 0; i < adaptiveMinSamples; i++ {
		lest.Observe(100)
	}
	if got := loose.proposalTimeout(); got != 5 {
		t.Fatalf("static ceiling breached: timeout %v, want 5", got)
	}
	if loose.AdaptiveArms != 0 {
		t.Fatalf("ceiling-clamped arm counted as adaptive: %d", loose.AdaptiveArms)
	}
}

// TestAdaptiveHonestMostlyEqualsLIC pins the good-case semantics of
// the adaptive path: honest peers, event runtime, a generous phi. The
// response time of a proposal is not bounded by the latency tail — an
// honest peer may hold a PROP in the approached state until its own
// quota resolves much later — so the estimator can occasionally revoke
// an honest proposal. The contract is therefore exactly the package
// doc's: spurious revocations cost connections, never consistency.
// Per seed the run must stay violation-free and structurally valid,
// and whenever no revocation fired the outcome must equal LIC; across
// the (deterministic) seed sweep most runs must be revocation-free and
// the estimator must visibly take over the timers. The workload is
// dense (b=4) so nodes keep proposing after the sample gate opens.
func TestAdaptiveHonestMostlyEqualsLIC(t *testing.T) {
	clean, arms := 0, 0
	const seeds = 10
	for seed := uint64(0); seed < seeds; seed++ {
		s := randomSystem(t, seed, 30, 0.5, 4)
		sc := Scenario{
			System:      s,
			Timeout:     1e7,
			AdaptivePhi: 12, // generous: honest tails rarely trip it
		}
		out, err := sc.Run(simnet.Event(simnet.Options{Seed: seed, Latency: simnet.UniformLatency(1, 3)}), stack.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Violations != 0 {
			t.Fatalf("seed %d: honest-only run counted %d violations", seed, out.Violations)
		}
		if err := out.Matching.Validate(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Revocations == 0 && out.DissolvedLocks == 0 {
			clean++
			want := matching.LIC(s, satisfaction.NewTable(s))
			if !out.Matching.Equal(want) {
				t.Fatalf("seed %d: revocation-free adaptive outcome differs from LIC", seed)
			}
		}
		arms += out.AdaptiveArms
	}
	if clean < seeds-2 {
		t.Fatalf("only %d/%d seeds revocation-free; adaptive timers fire far too eagerly", clean, seeds)
	}
	if arms == 0 {
		t.Fatal("estimator never armed a timer across the sweep")
	}
}

// TestAdaptiveAbsorbsCrashes: the adaptive timers must keep the
// crash-adversary guarantees — termination, symmetry, and revocations
// actually firing for dead peers — while typically detecting the dead
// peers faster than the static ceiling would.
func TestAdaptiveAbsorbsCrashes(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		s := randomSystem(t, seed, 30, 0.3, 2)
		sc := Scenario{
			System:      s,
			Adversaries: FractionAdversaries(30, 0.2, AdvCrash),
			Timeout:     200,
			AdaptivePhi: 10,
		}
		out, err := sc.Run(simnet.Event(simnet.Options{Seed: seed, Latency: simnet.UniformLatency(1, 3)}), stack.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Revocations == 0 {
			t.Fatalf("seed %d: crashes present but nothing revoked", seed)
		}
		if err := out.Matching.Validate(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAdaptiveStaysStaticOnCluster: the in-process cluster reports
// virtual time 0, so the estimator never collects a sample and the
// node must quietly stay on the static timeout — same termination,
// zero adaptive arms.
func TestAdaptiveStaysStaticOnCluster(t *testing.T) {
	s := randomSystem(t, 7, 16, 0.4, 2)
	tbl := satisfaction.NewTable(s)
	n := s.Graph().NumNodes()
	handlers := make([]simnet.Handler, n)
	nodes := make([]*TolerantNode, n)
	for id := 0; id < n; id++ {
		tn := NewTolerantNode(s, tbl, id, 400)
		tn.SetAdaptiveTimeout(detector.NewEstimator(64, 0.5), 8)
		nodes[id] = tn
		handlers[id] = tn
	}
	eps := reliable.WrapConfig(handlers, reliable.Config{RTO: 20})
	cluster, err := transport.NewMemoryCluster(n, transport.ClusterConfig{Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(reliable.Handlers(eps)); err != nil {
		t.Fatalf("goroutine runtime with adaptive nodes did not terminate: %v", err)
	}
	for id, tn := range nodes {
		if tn.AdaptiveArms != 0 {
			t.Fatalf("node %d armed %d adaptive timers under wall-clock-less runtime", id, tn.AdaptiveArms)
		}
	}
}

// TestSetAdaptiveTimeoutValidation: a non-positive phi is a programming
// error, caught loudly.
func TestSetAdaptiveTimeoutValidation(t *testing.T) {
	s := randomSystem(t, 1, 6, 0.6, 1)
	tbl := satisfaction.NewTable(s)
	n := NewTolerantNode(s, tbl, 0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("phi <= 0 did not panic")
		}
	}()
	n.SetAdaptiveTimeout(detector.NewEstimator(64, 0.5), 0)
}
