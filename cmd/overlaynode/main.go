// Command overlaynode runs ONE overlay node of the LID matching
// protocol on a real UDP socket — the deployable counterpart of
// overlaysim's in-process cluster. Every process is handed the same
// instance flags and rebuilds the full preference system
// deterministically (workload.Synthetic, the recipe overlaysim and
// graphgen build through), so no coordinator has to distribute
// preference lists: node i simply runs handler i of exactly the stack
// the simulator certifies, sending the frames its registered codecs
// encode.
//
// A three-node cluster on one machine:
//
//	overlaynode -node-id 0 -listen 127.0.0.1:7000 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002 -n 3 &
//	overlaynode -node-id 1 -listen 127.0.0.1:7001 -peers 0=127.0.0.1:7000,2=127.0.0.1:7002 -n 3 &
//	overlaynode -node-id 2 -listen 127.0.0.1:7002 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001 -n 3
//
// Each process prints its locked partner set once the protocol
// quiesces; corresponding lines across processes agree, and agree with
// `overlaysim -runtime event` on the same instance flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/kv"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/workload"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "overlaynode: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	spec := instanceFlags(flag.CommandLine)
	var (
		listen   = flag.String("listen", "", "UDP listen address, e.g. 127.0.0.1:7000 (required)")
		peersStr = flag.String("peers", "", "comma-separated peer routes id=host:port (required)")
		nodeID   = flag.Int("node-id", -1, "this node's ID in [0,n) (required)")
		rto      = flag.Float64("rto", 30, "retransmission timeout in virtual time units")
		adaptive = flag.Bool("adaptive-rto", false, "RFC-6298 adaptive retransmission timeout")
		detStr   = flag.String("detector", "off", "heartbeat failure detector: off | on | hb=N,ticks=N, either key optional (on = hb=5,ticks=64)")
		timeUnit = flag.Duration("time-unit", time.Millisecond, "wall-clock duration of one virtual time unit")
		timeout  = flag.Duration("timeout", 60*time.Second, "give up if the node is not quiescent by then")
		idle     = flag.Duration("idle", 500*time.Millisecond, "silence window that declares the run complete")
		coalesce = flag.Int("coalesce", 0, "frame-byte budget per datagram (0 = default 1200)")
		metOut   = flag.Bool("metrics", false, "print the node's simnet_* and transport_* metrics after the report")
		verbose  = flag.Bool("v", false, "print the workload and stack configuration")
	)
	flag.Parse()

	peers, err := parsePeers(*peersStr)
	if err != nil {
		fail("%v", err)
	}
	rel := reliable.Config{RTO: *rto, Adaptive: *adaptive}
	if err := validate(*listen, *nodeID, spec.N, peers, rel); err != nil {
		fail("%v", err)
	}
	det, err := detector.Parse(*detStr)
	if err != nil {
		fail("%v", err)
	}

	sys, err := spec.Build()
	if err != nil {
		fail("%v", err)
	}
	tbl := satisfaction.NewTable(sys)
	g := sys.Graph()
	if *verbose {
		fmt.Printf("workload: %s n=%d b=%d metric=%s seed=%d (%d edges)\n",
			spec.Topology, spec.N, spec.B, spec.Metric, spec.Seed, g.NumEdges())
		fmt.Printf("stack: lid < reliable(rto=%.1f adaptive=%v)", *rto, *adaptive)
		if det.Enabled() {
			fmt.Printf(" < detector(%s)", det)
		}
		fmt.Println()
	}

	// The full handler slice is built (it is cheap — protocol state is
	// lazy) and only handler[node-id] attaches to the socket; the rest
	// exist so the stack sees the same shape the simulator does. A real
	// datagram socket loses and reorders, so the reliable layer is not
	// optional here the way it is on the simulator.
	nodes := lid.NewNodes(sys, tbl)
	handlers, _ := stack.Spec{Reliable: rel, Detector: det}.Wrap(g, lid.Handlers(nodes))

	nd, err := transport.ListenUDP(transport.UDPConfig{
		NodeID:        *nodeID,
		N:             spec.N,
		Listen:        *listen,
		Peers:         peers,
		TimeUnit:      *timeUnit,
		CoalesceBytes: *coalesce,
	})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("node %d listening on %s\n", *nodeID, nd.LocalAddr())

	start := time.Now()
	nd.Start(handlers[*nodeID])
	if err := nd.AwaitQuiescence(*timeout, *idle); err != nil {
		nd.Close()
		fail("%v", err)
	}
	nd.Close()

	partners := nodes[*nodeID].Locked()
	sort.Ints(partners)
	labels := make([]string, len(partners))
	for i, v := range partners {
		labels[i] = strconv.Itoa(v)
	}
	total := satisfaction.Value(sys, *nodeID, partners)
	fmt.Printf("node %d quiescent after %v: %d/%d connections [%s], satisfaction %.4f\n",
		*nodeID, time.Since(start).Round(time.Millisecond),
		len(partners), spec.B, strings.Join(labels, " "), total)
	c := nd.Counters()
	fmt.Printf("  wire: %d frames out / %d in, %d datagrams out / %d in, %d bytes out / %d in, %d datagrams discarded\n",
		c.FramesSent, c.FramesDelivered, c.DatagramsSent, c.DatagramsRecv,
		c.BytesSent, c.BytesRecv, c.Discarded)

	if *metOut {
		reg := metrics.New()
		nd.PublishMetrics(reg)
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			fail("metrics: %v", err)
		}
	}
}

// instanceFlags binds the instance flags with -n required (default 0)
// and the shape flags -p, -radius and -m, so ws, grid and gnm always
// take their default shapes here.
func instanceFlags(fs *flag.FlagSet) *workload.Synthetic {
	return workload.BindFlags(fs, 0, "p", "radius", "m")
}

// parsePeers parses "1=127.0.0.1:7001,2=127.0.0.1:7002" (package kv's
// grammar) into a route table, rejecting malformed entries and
// duplicate IDs, "1" and "01" included.
func parsePeers(s string) (map[int]string, error) {
	peers := make(map[int]string)
	if s == "" {
		return peers, nil
	}
	fields, err := kv.Split("-peers", s)
	if err != nil {
		return nil, err
	}
	for _, f := range fields {
		pid, err := strconv.Atoi(f.Key)
		if err != nil {
			return nil, f.Errorf("ID is not a number")
		}
		if f.Val == "" {
			return nil, f.Errorf("empty address")
		}
		if _, dup := peers[pid]; dup {
			return nil, fmt.Errorf("-peers: peer ID %d appears twice", pid)
		}
		peers[pid] = f.Val
	}
	return peers, nil
}

// validate checks the flag combination before any socket is bound.
func validate(listen string, nodeID, n int, peers map[int]string, rel reliable.Config) error {
	if err := rel.Validate(); err != nil {
		return fmt.Errorf("-rto: %v", err)
	}
	if listen == "" {
		return fmt.Errorf("-listen is required")
	}
	if n <= 0 {
		return fmt.Errorf("-n %d must be positive", n)
	}
	if nodeID < 0 || nodeID >= n {
		return fmt.Errorf("-node-id %d outside [0,%d)", nodeID, n)
	}
	for id := range peers {
		if id < 0 || id >= n {
			return fmt.Errorf("peer ID %d outside [0,%d)", id, n)
		}
	}
	for id := 0; id < n; id++ {
		if id == nodeID {
			continue
		}
		if _, ok := peers[id]; !ok {
			return fmt.Errorf("-peers is missing a route for node %d", id)
		}
	}
	return nil
}
