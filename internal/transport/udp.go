package transport

import (
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/simnet"
)

// Datagram envelope: [magic uint32][sender uint32][crc32 uint32] then
// one or more concatenated frames. The CRC (IEEE, over the frame bytes)
// is the end-to-end integrity check the reliable layer's recovery story
// assumes: a damaged datagram is dropped whole and retransmission
// restores it, exactly like a simnet.Corrupted verdict under the
// simulator's fault policies.
const (
	datagramMagic  = 0x4F564D31 // "OVM1"
	envelopeLen    = 12
	defaultBudget  = 1200 // coalesced frame bytes per datagram (under common MTUs)
	recvBufferSize = 1 << 16
)

// UDPConfig parameterizes one socket-backed node.
type UDPConfig struct {
	// NodeID is this node's protocol identity in [0, N).
	NodeID int
	// N is the overlay size; sends outside [0, N) panic, like simnet.
	N int
	// Listen is the UDP listen address, e.g. "127.0.0.1:7000" or
	// "127.0.0.1:0" (kernel-assigned port, see LocalAddr).
	Listen string
	// Peers maps node IDs to UDP addresses. It may be set (or extended)
	// after ListenUDP via SetPeers — the loopback cluster binds every
	// socket first, then exchanges the kernel-assigned ports — but must
	// cover every destination before Start.
	Peers map[int]string
	// TimeUnit is the real duration of one virtual time unit for
	// timers and policy delays (default 1ms).
	TimeUnit time.Duration
	// CoalesceBytes is the frame-byte budget per datagram: queued
	// frames toward one peer are packed together up to this size
	// (default 1200). A single frame larger than the budget still goes
	// out, alone.
	CoalesceBytes int
}

func (c UDPConfig) timeUnit() time.Duration {
	if c.TimeUnit > 0 {
		return c.TimeUnit
	}
	return time.Millisecond
}

func (c UDPConfig) budget() int {
	if c.CoalesceBytes > 0 {
		return c.CoalesceBytes
	}
	return defaultBudget
}

// UDPCounters is a snapshot of one node's wire accounting. Frames are
// protocol messages (what simnet counts as sends/deliveries);
// datagrams are the socket-level packets they coalesce into.
type UDPCounters struct {
	FramesSent      int64
	FramesDelivered int64
	DatagramsSent   int64
	DatagramsRecv   int64
	BytesSent       int64
	BytesRecv       int64
	TimersFired     int64
	// TimersStopped counts timers the handler stack stopped before
	// they fired.
	TimersStopped int64
	// Dropped counts the frames the link policy dropped or, on a
	// socket, corrupted (simnet.Stats.Dropped).
	Dropped int64
	// Discarded counts datagrams lost on a socket, each once: a failed
	// write, and on receipt one too short for the envelope, with a bad
	// magic number, from the node itself or an ID outside [0, N), with
	// a CRC mismatch, or with a frame that does not decode, which also
	// discards every frame after it.
	Discarded int64
	// Activations counts the work this node started: its Init, every
	// frame copy it handed to the wire, every timer it armed.
	// Completions counts the handler calls that finished on it — Init,
	// then one per delivered frame or fired timer — plus one per
	// stopped timer, which completes the work its arming started.
	// Cluster.Run's termination check compares their cluster-wide sums.
	Activations int64
	Completions int64
}

// udpDelivery is one queued upcall for the node's handler goroutine.
// It stays 32 bytes: from is an int32 so the Lamport stamp fits.
type udpDelivery struct {
	msg   simnet.Message
	lam   uint64 // the sender's Lamport stamp (0 unless a recorder is on)
	from  int32
	timer bool
}

// inbox is the unbounded MPSC delivery queue: senders never block, one
// owner pops. Unboundedness matters: the paper's model assumes
// reliable asynchronous links, so the queue must never apply
// backpressure that could entangle protocol waits into artificial
// deadlocks.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []udpDelivery
	closed bool
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(d udpDelivery) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return
	}
	ib.items = append(ib.items, d)
	ib.cond.Signal()
}

func (ib *inbox) pop() (udpDelivery, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for len(ib.items) == 0 && !ib.closed {
		ib.cond.Wait()
	}
	if len(ib.items) == 0 {
		return udpDelivery{}, false
	}
	d := ib.items[0]
	ib.items = ib.items[1:]
	return d, true
}

func (ib *inbox) len() int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.items)
}

func (ib *inbox) close() {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.closed = true
	ib.cond.Broadcast()
}

// peerLink is the per-peer egress queue its send loop drains: frames
// accumulate while a datagram is on the wire, which is where
// coalescing comes from — a burst toward one peer (a proposal wave, a
// retransmission volley) shares envelopes instead of paying one packet
// per message.
type peerLink struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	closed bool
}

func newPeerLink() *peerLink {
	l := &peerLink{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *peerLink) push(frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.frames = append(l.frames, frame)
	l.cond.Signal()
}

// take blocks until frames are queued (returning them all) or the link
// closes (returning nil).
func (l *peerLink) take() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.frames) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.frames) == 0 {
		return nil
	}
	frames := l.frames
	l.frames = nil
	return frames
}

func (l *peerLink) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}

// UDPNode is one overlay node on one of two wires: a real UDP socket,
// or the in-process wire of NewMemoryCluster. It drives a
// simnet.Handler the same way on both — Init then sequential
// HandleMessage calls on one goroutine, timers as self-deliveries —
// and every send is an encoded frame. On a socket, frames are
// coalesced into datagrams and deliveries come off the wire; in
// process, each frame is decoded at the send site and the message goes
// straight into the receiver's inbox. The whole protocol stack (lid
// under reliable under detector) runs on either unchanged.
type UDPNode struct {
	cfg   UDPConfig
	conn  *net.UDPConn // nil on the in-process wire
	peers map[int]*net.UDPAddr
	sh    *shared

	inbox *inbox

	linkMu sync.Mutex
	links  map[int]*peerLink

	wg      sync.WaitGroup
	started bool
	closed  atomic.Bool

	halted        atomic.Bool
	pendingTimers atomic.Int64
	lastActivity  atomic.Int64 // UnixNano of the most recent wire/timer event

	framesSent      atomic.Int64
	framesDelivered atomic.Int64
	datagramsSent   atomic.Int64
	datagramsRecv   atomic.Int64
	bytesSent       atomic.Int64
	bytesRecv       atomic.Int64
	timersFired     atomic.Int64
	timersStopped   atomic.Int64
	dropped         atomic.Int64
	discarded       atomic.Int64

	// activations and completions are the two monotone counters of the
	// termination certificate (see Cluster.Run). An activation is
	// counted before the work it stands for can run — Init at Start, a
	// frame copy before it is handed to the wire, a timer before it is
	// armed — and the matching completion after the handler call that
	// consumes it returns, or, for a stopped timer, when the stop wins.
	activations atomic.Int64
	completions atomic.Int64

	// dropNext makes sendLoop discard its next datagram unsent, the way
	// a kernel may lose one (set only by tests).
	dropNext atomic.Bool

	// kinds and faults are only touched on the delivery goroutine
	// (Send happens inside handler calls), so they need no lock; they
	// are read after the node is stopped.
	kinds  simnet.KindCounts
	faults simnet.VerdictCounts
}

// shared is what every node of one cluster consults on its send path:
// the link policy with the mutex that serializes its verdicts, the
// telemetry recorder, and, on the in-process wire, the nodes to
// deliver to. A standalone socket node has an empty one.
type shared struct {
	policy simnet.LinkPolicy
	polMu  sync.Mutex
	rec    *obs.Recorder
	local  []*UDPNode // the in-process wire, by node ID; nil on sockets
}

// newNode returns a node with no socket attached.
func newNode(cfg UDPConfig, sh *shared) *UDPNode {
	nd := &UDPNode{cfg: cfg, sh: sh, inbox: newInbox()}
	nd.touch()
	return nd
}

// ListenUDP binds cfg.Listen and returns the node, not yet started.
func ListenUDP(cfg UDPConfig) (*UDPNode, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("transport: node count %d must be positive", cfg.N)
	}
	if cfg.NodeID < 0 || cfg.NodeID >= cfg.N {
		return nil, fmt.Errorf("transport: node ID %d outside [0,%d)", cfg.NodeID, cfg.N)
	}
	if cfg.Listen == "" {
		return nil, fmt.Errorf("transport: empty listen address")
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %v", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %v", cfg.Listen, err)
	}
	// A generous kernel buffer: a proposal wave at n=32+ bursts many
	// datagrams at one socket, and every loss costs a retransmission
	// round trip. Best effort — some systems clamp it.
	_ = conn.SetReadBuffer(1 << 20)
	nd := newNode(cfg, &shared{})
	nd.conn = conn
	nd.peers = make(map[int]*net.UDPAddr)
	nd.links = make(map[int]*peerLink)
	if err := nd.SetPeers(cfg.Peers); err != nil {
		conn.Close()
		return nil, err
	}
	return nd, nil
}

// LocalAddr returns the bound socket address (resolving ":0" listens).
// Socket nodes only.
func (nd *UDPNode) LocalAddr() *net.UDPAddr { return nd.conn.LocalAddr().(*net.UDPAddr) }

// ID returns the node's protocol identity.
func (nd *UDPNode) ID() int { return nd.cfg.NodeID }

// SetPeers resolves and installs id -> address routes (adding to any
// set at ListenUDP). An entry for the node itself is allowed and
// ignored. Call before Start.
func (nd *UDPNode) SetPeers(peers map[int]string) error {
	for id, addr := range peers {
		if id < 0 || id >= nd.cfg.N {
			return fmt.Errorf("transport: peer ID %d outside [0,%d)", id, nd.cfg.N)
		}
		if id == nd.cfg.NodeID {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("transport: peer %d address %q: %v", id, addr, err)
		}
		nd.peers[id] = ua
	}
	return nil
}

// touch records wire activity for the quiescence detector.
func (nd *UDPNode) touch() { nd.lastActivity.Store(time.Now().UnixNano()) }

// udpCtx implements simnet.Endpoint and simnet.Observable for handler
// calls on this node.
type udpCtx struct {
	nd *UDPNode
}

func (c *udpCtx) ID() int { return c.nd.cfg.NodeID }

// Time implements simnet.Context. A wall-clock node has no global
// virtual clock; layers that need one (adaptive RTO sampling) fall
// back to their clockless behavior.
func (c *udpCtx) Time() float64 { return 0 }

func (c *udpCtx) Halt() { c.nd.halted.Store(true) }

// Observer implements simnet.Observable (nil when telemetry is off).
// The recorder is mutex-guarded, so nodes record concurrently in
// scheduler order: Lamport stamps stay causally consistent, but the
// record order is not reproducible across runs, and times are 0.
func (c *udpCtx) Observer() *obs.Recorder { return c.nd.sh.rec }

// Send encodes msg, records it, takes the link policy's verdict, and
// hands each surviving copy to the wire. The verdict runs under the
// cluster-wide policy mutex with now = 0: probabilistic faults apply,
// time-windowed ones only if they are open at time 0.
func (c *udpCtx) Send(to int, msg simnet.Message) {
	nd := c.nd
	if to < 0 || to >= nd.cfg.N {
		panic(fmt.Sprintf("transport: send to %d outside [0,%d)", to, nd.cfg.N))
	}
	frame, err := simnet.EncodeFrame(msg)
	if err != nil {
		// An unregistered message type is a wiring bug, on the Runner
		// as on the wire — fail at the send site where the stack trace
		// names the protocol.
		panic(fmt.Sprintf("transport: node %d sending %T: %v", nd.cfg.NodeID, msg, err))
	}
	sh := nd.sh
	if sh.local != nil {
		// The in-process wire delivers what the frame decodes to, so
		// every message still round-trips through its codec, as strictly
		// as on a socket.
		got, used, err := simnet.DecodeFrame(frame)
		if err != nil || used != len(frame) {
			panic(fmt.Sprintf("transport: node %d sending %T: frame decodes to %d of its %d bytes: %v",
				nd.cfg.NodeID, msg, used, len(frame), err))
		}
		msg = got
	}
	nd.framesSent.Add(1)
	kind := simnet.KindOf(msg)
	nd.kinds.Add(kind, 1, int64(len(frame)))
	lam := sh.rec.Send(nd.cfg.NodeID, to, kind, 0)
	if sh.policy == nil {
		nd.activations.Add(1)
		nd.handOff(to, frame, msg, lam)
		return
	}
	sh.polMu.Lock()
	v := sh.policy.Verdict(0, nd.cfg.NodeID, to, msg)
	sh.polMu.Unlock()
	nd.faults.Add(v)
	if v.Drop || (v.Corrupt && sh.local == nil) {
		// On a socket the receiver's CRC check would discard a damaged
		// datagram, so a corrupted frame is discarded here.
		nd.dropped.Add(1)
		return
	}
	if v.Corrupt {
		msg = simnet.Corrupted{Original: msg}
	}
	for i := 0; i <= v.Copies; i++ {
		nd.activations.Add(1)
		if v.ExtraDelay > 0 {
			nd.pendingTimers.Add(1)
			payload := msg
			time.AfterFunc(time.Duration(v.ExtraDelay*float64(nd.cfg.timeUnit())), func() {
				nd.pendingTimers.Add(-1)
				nd.handOff(to, frame, payload, lam)
			})
			continue
		}
		nd.handOff(to, frame, msg, lam)
	}
}

// handOff puts one copy of a sent frame on the wire: in process, the
// decoded message goes straight into the receiver's inbox; on a
// socket, the frame joins the peer's egress queue.
func (nd *UDPNode) handOff(to int, frame []byte, msg simnet.Message, lam uint64) {
	if local := nd.sh.local; local != nil {
		local[to].inbox.push(udpDelivery{msg: msg, lam: lam, from: int32(nd.cfg.NodeID)})
		return
	}
	nd.link(to).push(frame)
}

// SetTimer implements simnet.TimerSetter: msg comes back to this node
// after delay virtual units of wall-clock time. A stoppable token's
// handle stops the underlying time.Timer; when the stop wins, it
// counts the completion the delivery would have counted, so the
// termination certificate stays exact. When the timer has already
// fired, the stop reports false and the delivery completes as usual.
func (c *udpCtx) SetTimer(delay float64, msg simnet.Message) {
	if !(delay > 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("transport: SetTimer delay %v is not positive and finite", delay))
	}
	nd := c.nd
	nd.activations.Add(1)
	nd.pendingTimers.Add(1)
	d := time.Duration(delay * float64(nd.cfg.timeUnit()))
	t := time.AfterFunc(d, func() {
		nd.pendingTimers.Add(-1)
		nd.touch()
		nd.inbox.push(udpDelivery{msg: msg, from: int32(nd.cfg.NodeID), timer: true})
	})
	if h := simnet.HandleOf(msg); h != nil {
		h.Bind(func() bool {
			if !t.Stop() {
				return false
			}
			nd.pendingTimers.Add(-1)
			nd.timersStopped.Add(1)
			nd.completions.Add(1)
			return true
		})
	}
}

// link returns (creating on first use) the egress queue toward peer
// and its send loop.
func (nd *UDPNode) link(to int) *peerLink {
	nd.linkMu.Lock()
	defer nd.linkMu.Unlock()
	l, ok := nd.links[to]
	if !ok {
		addr, known := nd.peers[to]
		if !known {
			panic(fmt.Sprintf("transport: node %d has no address for peer %d", nd.cfg.NodeID, to))
		}
		l = newPeerLink()
		nd.links[to] = l
		nd.wg.Add(1)
		go nd.sendLoop(l, addr)
	}
	return l
}

// sendLoop drains one peer's egress queue, coalescing queued frames
// into enveloped datagrams up to the byte budget.
func (nd *UDPNode) sendLoop(l *peerLink, addr *net.UDPAddr) {
	defer nd.wg.Done()
	budget := nd.cfg.budget()
	buf := make([]byte, 0, envelopeLen+budget)
	for {
		frames := l.take()
		if frames == nil {
			return
		}
		i := 0
		for i < len(frames) {
			buf = buf[:0]
			magic := uint32(datagramMagic)
			sender := uint32(nd.cfg.NodeID)
			buf = append(buf,
				byte(magic>>24), byte(magic>>16), byte(magic>>8), byte(magic),
				byte(sender>>24), byte(sender>>16), byte(sender>>8), byte(sender),
				0, 0, 0, 0) // CRC patched below
			// At least one frame per datagram; more while they fit.
			for i < len(frames) && (len(buf) == envelopeLen || len(buf)+len(frames[i]) <= envelopeLen+budget) {
				buf = append(buf, frames[i]...)
				i++
			}
			crc := crc32.ChecksumIEEE(buf[envelopeLen:])
			buf[8], buf[9], buf[10], buf[11] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
			if nd.dropNext.CompareAndSwap(true, false) {
				continue
			}
			if _, err := nd.conn.WriteToUDP(buf, addr); err != nil {
				if nd.closed.Load() {
					return
				}
				nd.discarded.Add(1)
				continue
			}
			nd.datagramsSent.Add(1)
			nd.bytesSent.Add(int64(len(buf)))
			nd.touch()
		}
	}
}

// readLoop parses incoming datagrams into frame deliveries.
func (nd *UDPNode) readLoop() {
	defer nd.wg.Done()
	buf := make([]byte, recvBufferSize)
	for {
		n, _, err := nd.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		nd.touch()
		nd.datagramsRecv.Add(1)
		nd.bytesRecv.Add(int64(n))
		data := buf[:n]
		if len(data) < envelopeLen ||
			uint32(data[0])<<24|uint32(data[1])<<16|uint32(data[2])<<8|uint32(data[3]) != datagramMagic {
			nd.discarded.Add(1)
			continue
		}
		from := int(uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7]))
		crc := uint32(data[8])<<24 | uint32(data[9])<<16 | uint32(data[10])<<8 | uint32(data[11])
		if from < 0 || from >= nd.cfg.N || from == nd.cfg.NodeID {
			nd.discarded.Add(1)
			continue
		}
		if crc32.ChecksumIEEE(data[envelopeLen:]) != crc {
			// Damaged in transit: drop the whole datagram. The reliable
			// layer's retransmission recovers, exactly as it does from a
			// simulated corrupt verdict.
			nd.discarded.Add(1)
			continue
		}
		rest := data[envelopeLen:]
		for len(rest) > 0 {
			msg, consumed, err := simnet.DecodeFrame(rest)
			if err != nil {
				// One bad frame poisons the remainder (lengths can no
				// longer be trusted); count and discard.
				nd.discarded.Add(1)
				break
			}
			rest = rest[consumed:]
			nd.inbox.push(udpDelivery{msg: msg, from: int32(from)})
		}
	}
}

// Start attaches the handler and begins delivery: Init runs first on
// the delivery goroutine, then arriving frames and timers, one at a
// time, until Close — the same per-node sequentiality contract the
// event simulator guarantees.
func (nd *UDPNode) Start(h simnet.Handler) {
	if nd.started {
		panic("transport: UDPNode started twice")
	}
	nd.started = true
	nd.activations.Add(1) // Init
	if nd.conn != nil {
		nd.wg.Add(1)
		go nd.readLoop()
	}
	nd.wg.Add(1)
	go func() {
		defer nd.wg.Done()
		ctx := &udpCtx{nd: nd}
		h.Init(ctx)
		nd.touch()
		nd.completions.Add(1)
		for {
			d, ok := nd.inbox.pop()
			if !ok {
				return
			}
			if rec := nd.sh.rec; rec != nil && !d.timer {
				rec.Deliver(nd.cfg.NodeID, int(d.from), simnet.KindOf(d.msg), 0, d.lam)
			}
			h.HandleMessage(ctx, int(d.from), d.msg)
			if d.timer {
				nd.timersFired.Add(1)
			} else {
				nd.framesDelivered.Add(1)
			}
			nd.touch()
			nd.completions.Add(1)
		}
	}()
}

// Halted reports whether the handler stack called Halt.
func (nd *UDPNode) Halted() bool { return nd.halted.Load() }

// Quiet reports whether the node is locally quiescent: handler halted,
// no queued deliveries, no pending timers, and no wire or timer
// activity for the given window. One node alone cannot know whether a
// datagram is still in flight toward it, so this is a heuristic: with
// the reliable layer active, "halted" certifies every frame this node
// sent was acknowledged, and the window only covers residual peer
// traffic (duplicate acks, trailing heartbeats). Cluster.Run, which
// sees every node, certifies termination by counting instead and uses
// Quiet only as its fallback after a lost datagram; a standalone node
// (AwaitQuiescence) still relies on it.
func (nd *UDPNode) Quiet(window time.Duration) bool {
	if !nd.halted.Load() || nd.inbox.len() > 0 || nd.pendingTimers.Load() > 0 {
		return false
	}
	last := time.Unix(0, nd.lastActivity.Load())
	return time.Since(last) >= window
}

// AwaitQuiescence blocks until Quiet(window) holds or the timeout
// expires (error). The standalone-binary form of Cluster.Run's
// fallback rule: one process sees only its own counters, so it cannot
// balance them cluster-wide.
func (nd *UDPNode) AwaitQuiescence(timeout, window time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if nd.Quiet(window) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("transport: node %d not quiescent after %v (halted=%v queued=%d timers=%d)",
		nd.cfg.NodeID, timeout, nd.halted.Load(), nd.inbox.len(), nd.pendingTimers.Load())
}

// Close stops the node: the socket, if any, closes (ending the read
// loop), the delivery queue drains no further, and the send loops
// exit. Close is idempotent and safe to call after a failed Await.
func (nd *UDPNode) Close() {
	if nd.closed.Swap(true) {
		return
	}
	if nd.conn != nil {
		nd.conn.Close()
	}
	nd.inbox.close()
	nd.linkMu.Lock()
	for _, l := range nd.links {
		l.close()
	}
	nd.linkMu.Unlock()
	nd.wg.Wait()
}

// Counters snapshots the node's wire accounting.
func (nd *UDPNode) Counters() UDPCounters {
	return UDPCounters{
		FramesSent:      nd.framesSent.Load(),
		FramesDelivered: nd.framesDelivered.Load(),
		DatagramsSent:   nd.datagramsSent.Load(),
		DatagramsRecv:   nd.datagramsRecv.Load(),
		BytesSent:       nd.bytesSent.Load(),
		BytesRecv:       nd.bytesRecv.Load(),
		TimersFired:     nd.timersFired.Load(),
		TimersStopped:   nd.timersStopped.Load(),
		Dropped:         nd.dropped.Load(),
		Discarded:       nd.discarded.Load(),
		Activations:     nd.activations.Load(),
		Completions:     nd.completions.Load(),
	}
}

// PublishMetrics merges into reg what a standalone node
// (cmd/overlaynode) can report of a run: the simnet_* series counted
// over this node alone and, on a socket, its transport_* series.
// Nil-safe. Call after the node is closed.
func (nd *UDPNode) PublishMetrics(reg *metrics.Registry) {
	if reg != nil {
		publishRun(nd.cfg.N, []*UDPNode{nd}, reg)
	}
}

// publishRun builds the Stats of a run of n nodes from the given
// closed nodes' counters. With a sink, it also publishes them there:
// the simnet_* series every runtime shares (simnet.Counts.Publish) and,
// on sockets, the transport_* series only a socket has.
func publishRun(n int, nodes []*UDPNode, sink *metrics.Registry) simnet.Stats {
	c := simnet.Counts{SentByNode: make([]int, n), ReceivedByNode: make([]int, n)}
	reg := metrics.New()
	for _, nd := range nodes {
		c.SentByNode[nd.cfg.NodeID] += int(nd.framesSent.Load())
		c.ReceivedByNode[nd.cfg.NodeID] += int(nd.framesDelivered.Load())
		c.Deliveries += nd.framesDelivered.Load()
		c.TimersFired += nd.timersFired.Load()
		c.TimersStopped += nd.timersStopped.Load()
		c.Dropped += nd.dropped.Load()
		for _, k := range nd.kinds {
			c.Kinds.Add(k.Kind, k.Msgs, k.Bytes)
		}
		c.Faults.Drop += nd.faults.Drop
		c.Faults.Dup += nd.faults.Dup
		c.Faults.Delay += nd.faults.Delay
		c.Faults.Corrupt += nd.faults.Corrupt
		if nd.conn != nil && sink != nil {
			reg.Counter("transport_datagrams_sent_total", "UDP datagrams written").Add(nd.datagramsSent.Load())
			reg.Counter("transport_datagrams_recv_total", "UDP datagrams read").Add(nd.datagramsRecv.Load())
			reg.Counter("transport_bytes_sent_total", "UDP payload bytes written, envelopes included").Add(nd.bytesSent.Load())
			reg.Counter("transport_bytes_recv_total", "UDP payload bytes read, envelopes included").Add(nd.bytesRecv.Load())
			reg.Counter("transport_datagrams_discarded_total", "datagrams lost on a failed write or discarded on receipt (envelope, sender, CRC or frame damage)").Add(nd.discarded.Load())
		}
	}
	if sink != nil {
		c.Publish(reg, sink)
	}
	return c.Stats(0)
}
