# Developer entry points. Everything is plain `go` underneath; the
# Makefile just names the common invocations.

GO ?= go

.PHONY: all build check test test-short race race-core registry-coverage golden-check loopback-check bench-module fmt-check vet layering fuzz fuzz-smoke frame-386 bench bench-json bench-check experiments examples cover clean

all: build vet test

# The default pre-commit gate: full build + vet + tests, plus the race
# detector on the concurrency-bearing packages (the metrics registry,
# the event simulator, the transport.Cluster runtime on both wires, the
# fault-injection explorer, and the phased and robust protocols, whose
# suites drive the in-process cluster), the
# experiment-registry coverage sweep, a short fuzz pass over the
# parsers, the golden-output regeneration diff (possible since the
# golden file is timing-free; any drift in any experiment fails here),
# the benchmark regression gate, the real-socket loopback
# conformance sweep, the protocol packages' independence from the
# socket runtime, the bench/ module's own vet and tests, the frame
# decoder's tests on a 32-bit build, a run of every example program
# (`go build` cannot catch an example that panics at run time, such as
# one sending a message type with no codec), and a gofmt cleanliness
# check.
check: fmt-check build vet layering test race-core registry-coverage fuzz-smoke frame-386 golden-check bench-check loopback-check bench-module examples

# Every Go file must already be gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

# Vet first so a broken build fails fast instead of surfacing as a
# confusing mid-run race failure. The dense-core packages (graph, pref,
# satisfaction, matching, lid) are included: they share read-only CSR
# slices across goroutines, which the race detector must keep honest.
race-core: vet
	$(GO) test -race -short ./internal/par/... ./internal/metrics/... ./internal/simnet/... ./internal/faults/... ./internal/detector/... ./internal/reliable/... ./internal/graph/... ./internal/pref/... ./internal/satisfaction/... ./internal/matching/... ./internal/lid/... ./internal/obs/... ./internal/workload/... ./internal/tournament/... ./internal/dynamic/... ./internal/transport/... ./internal/phased/... ./internal/robust/...

# The protocol packages and the run recipe (internal/stack) run on any
# simnet.Runtime, so none of them may depend on the wall-clock runtime
# (internal/transport): only the callers that pick a runtime import
# it. A failed `go list` fails the leg too.
layering:
	deps="$$($(GO) list -deps ./internal/stack ./internal/lid ./internal/dlid ./internal/phased ./internal/robust ./internal/tournament ./internal/faults)" && \
	! echo "$$deps" | grep -x overlaymatch/internal/transport

# Every registered experiment must still run under quick parameters —
# catches experiments silently falling out of the registry.
registry-coverage:
	$(GO) test -run TestRegistryQuickCoverage -count=1 ./internal/experiments

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Continuous fuzzing entry points (ctrl-C to stop).
fuzz:
	$(GO) test -fuzz FuzzLIDEquivalence -fuzztime 60s ./internal/lid

# Short deterministic-budget fuzz pass over the input parsers — the
# CI-sized version of `fuzz` (30s per target).
fuzz-smoke:
	$(GO) test -fuzz FuzzFaultSpecParse -fuzztime 30s ./internal/faults
	$(GO) test -fuzz FuzzReplayFile -fuzztime 30s ./internal/faults
	$(GO) test -fuzz FuzzDetectorConfigParse -fuzztime 30s ./internal/detector
	$(GO) test -fuzz FuzzWorkloadSpecParse -fuzztime 30s ./internal/workload
	$(GO) test -fuzz FuzzChurnSpecParse -fuzztime 30s ./internal/dynamic
	$(GO) test -fuzz FuzzFrameDecode -fuzztime 30s ./internal/transport
	$(GO) test -fuzz FuzzSchedulerSpecParse -fuzztime 30s ./internal/lid

# The frame decoder's strictness, round-trip and fuzz seed-corpus
# tests on a 32-bit build, where a length prefix near 2^32 once
# wrapped the decoder's int arithmetic into a slice panic. Datagrams
# come from the network, so the decoder must hold on every word size.
frame-386:
	GOARCH=386 $(GO) test -count=1 -run 'TestDecodeStrictness|TestRoundTripProperty|FuzzFrameDecode' ./internal/transport

bench:
	$(GO) test -bench=. -benchmem ./...

# Deterministic machine-readable benchmark trajectory: fixed seeds and
# iteration counts. The LIDCanonical/LIDGreedy rows run the same LID
# workload under canonical and greedy admission (the message-count delta
# is the scheduler's payoff); the *Par benchmarks sweep worker counts
# 1/2/4, a constant in cmd/benchjson (the workload columns must be
# identical at each count, and bench-check measures the same sweep).
# BENCH_PR24.json is the current point: its "before" rows measure the
# churn engine repairing through WeightKeys, a container/heap queue and
# a push-set map per epoch, its "after" rows the engine repairing in
# EdgeIDs with a typed candidate heap and reused scratch. This target
# rewrites its "after" rows. BENCH_PR4.json through BENCH_PR22.json stay
# committed as the earlier points of the trajectory.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR24.json -phase after -merge

# Benchmark regression gate: fresh -quick measurements must stay within
# tolerance of the "after" rows of the committed BENCH_PR24.json
# (allocation figures gated, workload metrics exact, wall clock
# report-only; its "before" rows are notes, not failures), and — the
# negative controls — must FAIL against a synthetically regressed
# fixture and against a baseline that mixes workers=0 rows with explicit
# worker counts in one family (the PR 10 matchBaseline fallback bug), so
# a broken gate cannot pass silently. The event Runner recycles its
# queue through a sync.Pool, so the LID rows' B/op depends on how many
# of the timed runs find the pool empty; the recorded LIDCanonical n=1000
# row is the one-miss figure.
bench-check:
	$(GO) test -count=1 ./cmd/benchjson
	$(GO) run ./cmd/benchjson -quick -compare BENCH_PR24.json
	! $(GO) run ./cmd/benchjson -quick -compare cmd/benchjson/testdata/regressed_baseline.json
	! $(GO) run ./cmd/benchjson -quick -compare cmd/benchjson/testdata/mixed_workers_baseline.json

# The golden experiments file must regenerate to the exact committed
# bytes: wall-clock columns now live in the manifest/metrics sink, so
# any diff is a real behavior change (or an unintended nondeterminism)
# and fails the gate.
golden-check:
	$(GO) run ./cmd/experiments -run all -seed 1 -out .experiments_regen.txt
	diff -u experiments_full.txt .experiments_regen.txt
	rm -f .experiments_regen.txt

# Wire conformance: seeded workloads run once on the deterministic
# event simulator and once on a transport.Cluster with the full
# reliable/detector stack; the matching must be the same LIC either
# way — for the n=32 loopback anchor, and on both wires (loopback UDP
# and in-process) for a sweep over the gnp, geometric, ba and ring
# families, four seeds each, and for reliable LID under a lossy,
# duplicating, corrupting, delaying link policy. On both wires it also
# checks that a stopped timer retires its activation, racing the
# firing included. A socket node must discard every malformed datagram
# a plain socket sends it, each counted once, and a Cluster or a lone
# node may publish only the socket's own transport_* series. lid.Run's
# matrix runs LID on the event, in-process and loopback runtimes under
# every stack, each publishing its Stats as the same simnet_* series.
# This is the gate that keeps the wire layer honest against the
# simulator the experiments certify.
loopback-check:
	$(GO) test -count=1 -run 'TestLoopbackClusterLIC|TestLoopbackClusterLICSweep|TestClusterCoalescing|TestClusterUnderFaults|TestClusterTimerStop|TestClusterTimerStopRace|TestUDPIngressDiscards|TestTransportMetricNames|TestRunMatrix' ./internal/transport ./internal/lid

# bench/ is its own module, built against the root API through a
# replace directive, so `go vet ./...` and `go test ./...` at the root
# never compile it: an API deletion would otherwise first break at
# benchmark time.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the validation suite (EXPERIMENTS.md's source of truth).
experiments:
	$(GO) run ./cmd/experiments -run all -seed 1 -out experiments_full.txt

# Run every example program end to end (part of make check), then one
# graphgen -format workload file through overlaysim -workload, so the
# graphgen binary runs in the gate too.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/filesharing
	$(GO) run ./examples/interestcluster
	$(GO) run ./examples/geooverlay
	$(GO) run ./examples/churn
	$(GO) run ./examples/hostile
	$(GO) run ./cmd/graphgen -topology ws -n 60 -metric transactions -seed 3 -format workload -out .graphgen_workload.json
	$(GO) run ./cmd/overlaysim -workload .graphgen_workload.json
	rm -f .graphgen_workload.json

cover:
	$(GO) test ./... -coverprofile=cover.out -covermode=count
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out .experiments_regen.txt .graphgen_workload.json
