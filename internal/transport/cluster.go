package transport

import (
	"fmt"
	"strings"
	"time"

	"overlaymatch/internal/simnet"
)

// Cluster boots n UDPNodes on loopback sockets in one process and runs
// a handler set over real datagrams. It is the third simnet.Transport
// backend — after the deterministic Runner and the in-memory GoRunner
// — and the conformance bridge between them and a deployment: a test
// seeds the same workload into a Runner and a Cluster and asserts the
// matchings agree.
//
// Every socket binds 127.0.0.1:0 first; the kernel-assigned ports are
// then exchanged as each node's peer table, so cluster tests never
// race over fixed port numbers.
type Cluster struct {
	nodes []*UDPNode
	cfg   ClusterConfig
}

// Compile-time proof that a real-socket cluster satisfies the same
// contract as the simulator runtimes. (Asserted here, not in package
// simnet, to keep simnet import-free of the wire layer.)
var _ simnet.Transport = (*Cluster)(nil)

// ClusterConfig parameterizes a loopback cluster. The zero value is
// usable.
type ClusterConfig struct {
	// TimeUnit is the wall-clock duration of one virtual timer unit on
	// every node (default 1ms, like GoRunner.SetTimeUnit).
	TimeUnit time.Duration
	// CoalesceBytes is each node's per-datagram frame budget (default
	// 1200).
	CoalesceBytes int
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

// NewLoopbackCluster binds n loopback sockets and wires the full peer
// mesh. No handler runs until Run. Callers must Close (Run leaves the
// cluster closed already; Close is idempotent).
func NewLoopbackCluster(n int, cfg ClusterConfig) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: cluster size %d must be positive", n)
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < n; i++ {
		nd, err := ListenUDP(UDPConfig{
			NodeID:        i,
			N:             n,
			Listen:        "127.0.0.1:0",
			TimeUnit:      cfg.TimeUnit,
			CoalesceBytes: cfg.CoalesceBytes,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
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
// the same shape the simulator runtimes produce (FinalTime is 0 — a
// socket cluster has no global virtual clock; Dropped counts ingress
// discards: CRC damage, decode failures, unknown senders).
//
// Termination is certified by counting, in the style of Mattern's
// four-counter method — the wall-clock form of the GoRunner's
// "nothing pending, nothing outstanding" check. Every node keeps two
// monotone counters: activations (its Init, each frame it sends, each
// timer it arms — counted before the work can start) and completions
// (each Init or HandleMessage call that has returned). Every 1 ms Run
// sums all completions (wave 1), then all activations (wave 2). If the
// sums are equal, the run has terminated at some instant t between the
// waves:
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
// never duplicates a datagram, which loopback UDP does not.) If every
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
// so far and an error naming the stuck nodes, mirroring GoRunner's
// deadline error.
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
