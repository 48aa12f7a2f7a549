// Package transport lifts the protocol stack off the event simulator
// and onto a wire. It provides the two things simnet never needed: a
// binary representation for protocol messages (simnet passes Go
// values; a socket passes bytes), and the wall-clock concurrent
// runtime (udp.go, cluster.go) — on loopback sockets or on an
// in-process wire — that implements the same simnet.Transport contract
// as the Runner, so the lid/reliable/detector stack runs on it
// unchanged.
//
// # Frame format
//
// A frame is one encoded protocol message, length-prefixed so frames
// concatenate into datagrams (coalescing) or byte streams (a future
// TCP backend) without any out-of-band delimiters:
//
//	offset 0  uint32 (big-endian)  frame length L = 3 + len(payload)
//	offset 4  uint8                codec version of the message type
//	offset 5  uint16 (big-endian)  registered message type ID
//	offset 7  byte[L-3]            type-specific payload
//
// Encodings are canonical and deterministic: every codec writes
// fixed-width big-endian fields, and every decoder is strict — wrong
// length, out-of-range enum, non-0/1 bool byte, or unknown version all
// fail instead of being silently tolerated. Strictness buys the
// invariant the round-trip tests and FuzzFrameDecode enforce: any
// byte string that decodes at all re-encodes to exactly itself, so
// there is one wire representation per message and goldens over
// captured traffic are meaningful.
//
// # Codec registry
//
// Message types register a Codec under a fixed ID (the ID* constants
// below — a central, append-only number space). Registration happens
// in each protocol package's wire.go init, so importing a protocol
// brings its wire format along; the registry is how the socket runtime
// turns simnet.Message values into frames and back without importing
// any protocol package (which would invert the layering).
package transport

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// Registered message type IDs. The space is append-only: an ID, once
// assigned, keeps its meaning forever (frames may be captured to disk).
// Low byte groups by package so hexdumps stay readable.
const (
	// IDRaw is transport's own opaque byte payload (see Raw).
	IDRaw uint16 = 0x0001

	// Package lid (robust's TolerantNode speaks the same messages).
	IDLIDMsg uint16 = 0x0101
	// Package phased (phase-tagged lid messages).
	IDPhasedMsg uint16 = 0x0102

	// Package dlid: maintenance wire messages and the environment
	// commands its churn schedules inject.
	IDDlidMsg      uint16 = 0x0201
	IDDlidCmdLeave uint16 = 0x0202
	IDDlidCmdJoin  uint16 = 0x0203

	// Package reliable: the ack/retransmit framing.
	IDReliableData uint16 = 0x0301
	IDReliableAck  uint16 = 0x0302

	// Package detector: heartbeat liveness probes.
	IDDetectorHB    uint16 = 0x0401
	IDDetectorHBAck uint16 = 0x0402
)

// frameOverhead is the fixed header cost: 4-byte length prefix, 1-byte
// codec version, 2-byte type ID.
const frameOverhead = 7

// MaxFrame bounds one frame's total size (header included). It caps
// decoder recursion (a reliable DATA frame nests its payload frame)
// and keeps a single frame inside what a UDP datagram can carry.
const MaxFrame = 1 << 16

// Codec is one message type's wire representation. Encode appends the
// canonical payload bytes (no header) to buf; Decode parses exactly
// those bytes back, rejecting anything non-canonical. Sample draws a
// pseudo-random valid instance — the generator behind the round-trip
// property tests and the fuzz seed corpus, so every registered type is
// exercised without the test layer knowing any type's shape.
type Codec struct {
	// Name labels the type in errors and test output, e.g. "lid.Msg".
	Name string
	// Version is the codec version stamped into every frame header;
	// bump it when the payload layout changes incompatibly.
	Version uint8
	// Type is the concrete Go type this codec handles.
	Type reflect.Type
	// Encode appends msg's canonical payload to buf.
	Encode func(msg simnet.Message, buf []byte) []byte
	// Decode parses one payload. It must consume exactly payload and
	// reject non-canonical bytes.
	Decode func(payload []byte) (simnet.Message, error)
	// Sample returns a valid pseudo-random instance drawn from src.
	Sample func(src *rng.Source) simnet.Message
}

var registry = struct {
	sync.RWMutex
	byID   map[uint16]Codec
	byType map[reflect.Type]uint16
}{
	byID:   make(map[uint16]Codec),
	byType: make(map[reflect.Type]uint16),
}

// Register installs a codec under id. It is meant to be called from
// protocol packages' init functions; duplicate IDs, duplicate types,
// and incomplete codecs are programming errors and panic.
func Register(id uint16, c Codec) {
	if c.Name == "" || c.Type == nil || c.Encode == nil || c.Decode == nil || c.Sample == nil {
		panic(fmt.Sprintf("transport: incomplete codec registration for ID %#04x", id))
	}
	registry.Lock()
	defer registry.Unlock()
	if prev, dup := registry.byID[id]; dup {
		panic(fmt.Sprintf("transport: ID %#04x registered twice (%s, %s)", id, prev.Name, c.Name))
	}
	if prevID, dup := registry.byType[c.Type]; dup {
		panic(fmt.Sprintf("transport: type %v registered twice (%#04x, %#04x)", c.Type, prevID, id))
	}
	registry.byID[id] = c
	registry.byType[c.Type] = id
}

// CodecByID returns the codec registered under id.
func CodecByID(id uint16) (Codec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	c, ok := registry.byID[id]
	return c, ok
}

// CodecFor returns the registered ID and codec for msg's concrete type.
func CodecFor(msg simnet.Message) (uint16, Codec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	id, ok := registry.byType[reflect.TypeOf(msg)]
	if !ok {
		return 0, Codec{}, false
	}
	return id, registry.byID[id], true
}

// RegisteredIDs returns every registered type ID in ascending order —
// the iteration surface of the generic round-trip tests and the fuzz
// corpus builder.
func RegisteredIDs() []uint16 {
	registry.RLock()
	defer registry.RUnlock()
	ids := make([]uint16, 0, len(registry.byID))
	for id := range registry.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// EmptyCodec returns the codec of a payload-less message type, whose
// information is its arrival (a heartbeat, an environment command):
// the frame header is the whole message. value returns the type's
// only value.
func EmptyCodec(name string, typ reflect.Type, value func() simnet.Message) Codec {
	return Codec{
		Name:    name,
		Version: 1,
		Type:    typ,
		Encode:  func(_ simnet.Message, buf []byte) []byte { return buf },
		Decode: func(payload []byte) (simnet.Message, error) {
			if len(payload) != 0 {
				return nil, fmt.Errorf("%s payload is %d bytes, want 0", name, len(payload))
			}
			return value(), nil
		},
		Sample: func(*rng.Source) simnet.Message { return value() },
	}
}

// AppendFrame encodes msg as one complete frame (header + payload)
// appended to buf. It fails if msg's type has no registered codec or
// the encoded frame would exceed MaxFrame.
func AppendFrame(buf []byte, msg simnet.Message) ([]byte, error) {
	id, c, ok := CodecFor(msg)
	if !ok {
		return buf, fmt.Errorf("transport: no codec registered for %T", msg)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, c.Version, byte(id>>8), byte(id))
	buf = c.Encode(msg, buf)
	frameLen := len(buf) - start - 4 // version + id + payload
	if frameLen+4 > MaxFrame {
		return buf[:start], fmt.Errorf("transport: %s frame of %d bytes exceeds MaxFrame", c.Name, frameLen+4)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(frameLen))
	return buf, nil
}

// EncodeFrame is AppendFrame into a fresh buffer.
func EncodeFrame(msg simnet.Message) ([]byte, error) {
	return AppendFrame(nil, msg)
}

// DecodeFrame parses the first frame of data and returns the decoded
// message and the number of bytes consumed (header included). Frames
// concatenate, so callers loop: decode, advance by consumed, repeat.
func DecodeFrame(data []byte) (simnet.Message, int, error) {
	if len(data) < frameOverhead {
		return nil, 0, fmt.Errorf("transport: short frame header (%d bytes)", len(data))
	}
	frameLen := binary.BigEndian.Uint32(data)
	if frameLen < frameOverhead-4 {
		return nil, 0, fmt.Errorf("transport: frame length %d below header minimum", frameLen)
	}
	if frameLen+4 > MaxFrame {
		return nil, 0, fmt.Errorf("transport: frame length %d exceeds MaxFrame", frameLen+4)
	}
	total := int(frameLen) + 4
	if len(data) < total {
		return nil, 0, fmt.Errorf("transport: truncated frame (%d of %d bytes)", len(data), total)
	}
	ver := data[4]
	id := uint16(data[5])<<8 | uint16(data[6])
	c, ok := CodecByID(id)
	if !ok {
		return nil, 0, fmt.Errorf("transport: unknown message type %#04x", id)
	}
	if ver != c.Version {
		return nil, 0, fmt.Errorf("transport: %s version %d, codec speaks %d", c.Name, ver, c.Version)
	}
	msg, err := c.Decode(data[frameOverhead:total])
	if err != nil {
		return nil, 0, fmt.Errorf("transport: %s payload: %v", c.Name, err)
	}
	return msg, total, nil
}

// Raw is transport's own opaque payload type: a byte string carried
// verbatim. It gives the wire layer a message type of its own (loop
// tests, nested-frame samples, future control traffic) and demonstrates
// the registration pattern without touching any protocol package.
type Raw []byte

// Kind implements simnet.Kinder.
func (Raw) Kind() string { return "RAW" }

// WireSize implements simnet.Sizer: header plus the bytes themselves.
func (r Raw) WireSize() int { return frameOverhead + len(r) }

func init() {
	Register(IDRaw, Codec{
		Name:    "transport.Raw",
		Version: 1,
		Type:    reflect.TypeOf(Raw(nil)),
		Encode: func(msg simnet.Message, buf []byte) []byte {
			return append(buf, msg.(Raw)...)
		},
		Decode: func(payload []byte) (simnet.Message, error) {
			return Raw(append([]byte(nil), payload...)), nil
		},
		Sample: func(src *rng.Source) simnet.Message {
			b := make(Raw, src.Uint64n(24))
			for i := range b {
				b[i] = byte(src.Uint64())
			}
			return b
		},
	})
}
