// Package transport is the wall-clock concurrent runtime (udp.go,
// cluster.go): one goroutine per node, on loopback sockets or on an
// in-process wire, implementing the same simnet.Transport contract as
// the Runner, so the lid/reliable/detector stack runs on it unchanged.
// Every message crosses the wire as the frame its registered codec
// encodes (package simnet's wire format); a type with no codec panics
// at the send site.
package transport

import (
	"fmt"
	"strings"
	"time"

	"overlaymatch/internal/obs"
	"overlaymatch/internal/simnet"
)

// Cluster runs a handler set on n UDPNodes in one process, on one of
// two wires. NewLoopbackCluster puts every node on a real loopback
// socket: frames cross the kernel as coalesced, checksummed datagrams.
// NewMemoryCluster's in-process wire hands each frame, decoded, to the
// receiver's inbox. Either way each node has its own goroutine and
// unbounded queue, every message passes through its codec, and Run
// ends on the same termination certificate. The Cluster is the
// repo's wall-clock concurrent runtime: interleavings come from the Go
// scheduler, so running under -race exercises the protocols' per-node
// isolation, and a test seeds the same workload into the
// deterministic Runner and a Cluster and asserts the matchings agree.
type Cluster struct {
	nodes []*UDPNode
	cfg   ClusterConfig
}

// Compile-time proof that a cluster satisfies the same contract as the
// simulator, with contexts that carry timers and the recorder.
// (Asserted here, not in package simnet, to keep simnet import-free
// of the wire layer.)
var (
	_ simnet.Transport  = (*Cluster)(nil)
	_ simnet.Endpoint   = (*udpCtx)(nil)
	_ simnet.Observable = (*udpCtx)(nil)
)

// ClusterConfig parameterizes a cluster. The zero value is usable.
type ClusterConfig struct {
	// Timeout bounds Run's wait for cluster quiescence (default 30s).
	Timeout time.Duration
	// IdleWindow is the fallback when counts never balance: after a
	// datagram is lost, Run's counting certificate can no longer hold,
	// and the run ends once every node has been silent — halted, empty
	// inbox, no pending timers, no wire activity — for this long
	// (default 150ms). With the reliable layer in the stack, Halt
	// already certifies full acknowledgment, so the window only has to
	// outlast residual duplicate/heartbeat traffic. A run that loses
	// nothing never waits for it.
	IdleWindow time.Duration
	// Policy, if non-nil, injects link faults (see simnet.LinkPolicy).
	// Every send is offered to it after encoding, under one
	// cluster-wide mutex and with now = 0, so the same policies serve
	// the Runner and a Cluster. A dropped send is never handed to the
	// wire; each copy is; a delayed copy is handed off from a
	// wall-clock timer. A corrupted frame reaches the receiver as
	// simnet.Corrupted in process, and is discarded on a socket, as
	// the receiver's CRC check would discard it. Only
	// delivery-preserving faults keep bare LID correct — wrap the
	// handlers in package reliable for drop/corrupt faults.
	Policy simnet.LinkPolicy
	// Obs, if non-nil, records every send and delivery (package obs).
	// The Lamport stamp rides in the inbox, so only the in-process
	// wire can carry it; NewLoopbackCluster rejects a recorder.
	Obs *obs.Recorder
}

func (c ClusterConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

func (c ClusterConfig) idleWindow() time.Duration {
	if c.IdleWindow > 0 {
		return c.IdleWindow
	}
	return 150 * time.Millisecond
}

// NewMemoryCluster builds n socket-less nodes on the in-process wire:
// a send encodes the frame, strictly decodes it back, and pushes the
// message into the receiver's inbox — no datagrams, send loops or
// read loops. Nothing is lost in process, so the counting certificate
// ends every run. n = 0 gives an empty cluster.
func NewMemoryCluster(n int, cfg ClusterConfig) (*Cluster, error) {
	if n < 0 {
		return nil, fmt.Errorf("transport: negative cluster size %d", n)
	}
	sh := &shared{policy: cfg.Policy, rec: cfg.Obs, local: make([]*UDPNode, n)}
	for i := range sh.local {
		sh.local[i] = newNode(UDPConfig{NodeID: i, N: n}, sh)
	}
	return &Cluster{nodes: sh.local, cfg: cfg}, nil
}

// NewLoopbackCluster binds n loopback sockets and wires the full peer
// mesh. Every socket binds 127.0.0.1:0 first; the kernel-assigned
// ports are then exchanged as each node's peer table, so cluster tests
// never race over fixed port numbers. n = 0 gives an empty cluster. No
// handler runs until Run. Callers must Close (Run leaves the cluster
// closed already; Close is idempotent).
func NewLoopbackCluster(n int, cfg ClusterConfig) (*Cluster, error) {
	if n < 0 {
		return nil, fmt.Errorf("transport: negative cluster size %d", n)
	}
	if cfg.Obs != nil {
		return nil, fmt.Errorf("transport: a loopback cluster cannot carry Lamport stamps; record on NewMemoryCluster")
	}
	sh := &shared{policy: cfg.Policy}
	c := &Cluster{cfg: cfg}
	for i := 0; i < n; i++ {
		nd, err := ListenUDP(UDPConfig{NodeID: i, N: n, Listen: "127.0.0.1:0"})
		if err != nil {
			c.Close()
			return nil, err
		}
		nd.sh = sh
		c.nodes = append(c.nodes, nd)
	}
	// Exchange the kernel-assigned ports as everyone's peer table.
	addrs := make(map[int]string, n)
	for i, nd := range c.nodes {
		addrs[i] = nd.LocalAddr().String()
	}
	for _, nd := range c.nodes {
		if err := nd.SetPeers(addrs); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Nodes exposes the cluster's members (for counter assertions).
func (c *Cluster) Nodes() []*UDPNode { return c.nodes }

// Run implements simnet.Transport: it starts handlers[i] on node i,
// waits for cluster-wide quiescence, closes the cluster (on every
// return path, errors included), and returns aggregate Stats with
// the same shape the Runner produces (FinalTime is 0 — a cluster has
// no global virtual clock; Dropped counts policy drops and ingress
// discards: CRC damage, decode failures, unknown senders).
//
// Termination is certified by counting, in the style of Mattern's
// four-counter method. Every node keeps two monotone counters:
// activations (its Init, each frame copy it hands to the wire, each
// timer it arms — counted before the work can start) and completions
// (each Init or HandleMessage call that has returned, and each timer
// stopped before it fired: the stop, made inside a handler call,
// retires the timer's activation). Every 1 ms Run sums all
// completions (wave 1), then all activations (wave 2). If the sums are
// equal, the run has terminated at some instant t between the waves:
//
//   - C(t) ≥ wave 1's sum, because completions only grow after they
//     are read;
//   - A(t) ≤ wave 2's sum, because activations are read after t;
//   - C(t) ≤ A(t) at every instant, because each handler call is
//     counted as an activation before it can complete.
//
// So C(t) = A(t): at t no handler was running, no frame was in flight
// and no timer was pending. New work only starts inside a handler, so
// nothing can ever happen again. (The inequality needs a wire that
// never duplicates a frame unseen: loopback UDP does not, and each
// copy a Policy makes is activated.) If every
// node has halted, the run succeeded; otherwise it is deadlocked, and
// Run returns the Runner's "never halted" error at once.
//
// A datagram the kernel drops leaves its activation without a
// completion forever. Such a run still ends through the fallback:
// every node UDPNode.Quiet for ClusterConfig.IdleWindow. Protocol
// stacks that ride a lossy wire should include the reliable layer,
// whose deferred Halt makes "every node halted" an
// all-frames-acknowledged certificate, so the window only has to
// outlast residual traffic. On timeout Run returns the stats gathered
// so far and an error naming the stuck nodes.
func (c *Cluster) Run(handlers []simnet.Handler) (simnet.Stats, error) {
	if len(handlers) != len(c.nodes) {
		c.Close()
		return simnet.Stats{}, fmt.Errorf("transport: %d handlers for %d nodes", len(handlers), len(c.nodes))
	}
	for i, nd := range c.nodes {
		nd.Start(handlers[i])
	}

	window := c.cfg.idleWindow()
	deadline := time.Now().Add(c.cfg.timeout())
	var certified, timedOut bool
	for {
		if c.balanced() {
			certified = true
			break
		}
		if c.quiet(window) {
			break
		}
		if time.Now().After(deadline) {
			timedOut = true
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Certified termination is final: no handler runs again, so a node
	// that has not halted by now never will.
	deadlocked := -1
	if certified {
		for _, nd := range c.nodes {
			if !nd.Halted() {
				deadlocked = nd.ID()
				break
			}
		}
	}
	// Close before reading stats: stopping every goroutine both
	// quiesces the counters and establishes the happens-before edge
	// that makes the unlocked sentByKind maps safe to read.
	var stuck []string
	if timedOut {
		for _, nd := range c.nodes {
			if !nd.Quiet(window) {
				stuck = append(stuck, fmt.Sprintf("node %d (halted=%v queued=%d timers=%d activations=%d completions=%d)",
					nd.ID(), nd.Halted(), nd.inbox.len(), nd.pendingTimers.Load(),
					nd.activations.Load(), nd.completions.Load()))
			}
		}
	}
	c.Close()

	stats := simnet.Stats{
		SentByNode:     make([]int, len(c.nodes)),
		ReceivedByNode: make([]int, len(c.nodes)),
		SentByKind:     make(map[string]int),
	}
	for i, nd := range c.nodes {
		cnt := nd.Counters()
		stats.SentByNode[i] = int(cnt.FramesSent)
		stats.ReceivedByNode[i] = int(cnt.FramesDelivered)
		stats.Deliveries += int(cnt.FramesDelivered)
		stats.TimersFired += int(cnt.TimersFired)
		stats.TimersStopped += int(cnt.TimersStopped)
		stats.Dropped += int(cnt.Dropped)
		for k, v := range nd.sentByKind {
			stats.SentByKind[k] += v
		}
	}
	if deadlocked >= 0 {
		return stats, fmt.Errorf("transport: node %d never halted (deadlock)", deadlocked)
	}
	if timedOut {
		return stats, fmt.Errorf("transport: cluster not quiescent after %v: %s",
			c.cfg.timeout(), strings.Join(stuck, "; "))
	}
	return stats, nil
}

// balanced runs the two counting waves of Run's termination check:
// every node's completions first, then every node's activations.
func (c *Cluster) balanced() bool {
	var done, begun int64
	for _, nd := range c.nodes {
		done += nd.completions.Load()
	}
	for _, nd := range c.nodes {
		begun += nd.activations.Load()
	}
	return done == begun
}

// quiet is Run's fallback rule: every node Quiet for the window.
func (c *Cluster) quiet(window time.Duration) bool {
	for _, nd := range c.nodes {
		if !nd.Quiet(window) {
			return false
		}
	}
	return true
}

// Close shuts every node down. Idempotent.
func (c *Cluster) Close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
}

// AppendFrame forwards to simnet.AppendFrame. It is kept only for the
// benchmark module (bench/), which calls it by this name.
func AppendFrame(buf []byte, msg simnet.Message) ([]byte, error) {
	return simnet.AppendFrame(buf, msg)
}

// DecodeFrame forwards to simnet.DecodeFrame. It is kept only for the
// benchmark module (bench/), which calls it by this name.
func DecodeFrame(data []byte) (simnet.Message, int, error) {
	return simnet.DecodeFrame(data)
}
