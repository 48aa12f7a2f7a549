package transport_test

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"sync"
	"testing"
	"time"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// envelope builds a datagram as a socket node writes one: magic,
// sender and the CRC of the frames, big-endian, then the frames.
func envelope(magic, sender uint32, frames ...[]byte) []byte {
	var body []byte
	for _, f := range frames {
		body = append(body, f...)
	}
	d := binary.BigEndian.AppendUint32(nil, magic)
	d = binary.BigEndian.AppendUint32(d, sender)
	d = binary.BigEndian.AppendUint32(d, crc32.ChecksumIEEE(body))
	return append(d, body...)
}

// recorder keeps every delivery's sender and payload.
type recorder struct {
	mu  sync.Mutex
	got []string
}

func (r *recorder) Init(simnet.Context) {}
func (r *recorder) HandleMessage(_ simnet.Context, from int, msg simnet.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, string(rune('0'+from))+":"+string(msg.(simnet.Raw)))
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

// TestUDPIngressDiscards sends raw datagrams from a plain socket to a
// ListenUDP node. A datagram too short for the envelope, with a bad
// magic number, from the node itself or an ID outside [0, N), or with
// a CRC mismatch reaches no handler; one with an undecodable frame
// delivers the frames ahead of it and discards the rest. The discard
// counter counts each bad datagram once, whatever its frame count, and
// no discard is a link-policy drop.
func TestUDPIngressDiscards(t *testing.T) {
	const magic = 0x4F564D31
	raw := func(s string) []byte {
		f, err := simnet.EncodeFrame(simnet.Raw(s))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	unknown := raw("unknown type")
	unknown[5], unknown[6] = 0xff, 0xff // a type ID no codec registers
	damaged := envelope(magic, 0, raw("crc"), raw("crc"))
	damaged[len(damaged)-1] ^= 1
	datagrams := [][]byte{
		envelope(magic, 0)[:11],
		envelope(magic+1, 0, raw("magic"), raw("magic")),
		envelope(magic, 1, raw("self"), raw("self")),
		envelope(magic, 3, raw("range"), raw("range")),
		damaged,
		envelope(magic, 0, raw("a"), raw("b"), unknown, raw("after")),
		envelope(magic, 2, raw("end")),
	}
	const bad = 6
	want := []string{"0:a", "0:b", "2:end"}

	nd, err := transport.ListenUDP(transport.UDPConfig{NodeID: 1, N: 3, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	h := &recorder{}
	nd.Start(h)
	conn, err := net.DialUDP("udp", nil, nd.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, d := range datagrams {
		if _, err := conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); nd.Counters().DatagramsRecv < int64(len(datagrams)) || h.count() < len(want); {
		if time.Now().After(deadline) {
			t.Fatalf("node read %d of %d datagrams, delivered %d of %d frames",
				nd.Counters().DatagramsRecv, len(datagrams), h.count(), len(want))
		}
		time.Sleep(time.Millisecond)
	}
	nd.Close()

	if len(h.got) != len(want) {
		t.Fatalf("handler saw %q, want %q", h.got, want)
	}
	seen := map[string]bool{}
	for _, g := range h.got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("handler saw %q, want %q", h.got, want)
		}
	}
	c := nd.Counters()
	if c.Discarded != bad || c.Dropped != 0 {
		t.Fatalf("discarded %d datagrams and dropped %d frames, want %d and 0", c.Discarded, c.Dropped, bad)
	}
	reg := metrics.New()
	nd.PublishMetrics(reg)
	if got := reg.Counter("transport_datagrams_discarded_total", "").Value(); got != bad {
		t.Fatalf("transport_datagrams_discarded_total = %d, want %d", got, bad)
	}
	if got := reg.Counter("simnet_dropped_total", "").Value(); got != 0 {
		t.Fatalf("simnet_dropped_total = %d, want 0", got)
	}
}
