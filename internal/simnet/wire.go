package simnet

import (
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"overlaymatch/internal/rng"
)

// Wire format: the one description of a message's bytes. Both runtimes
// use it. A Cluster sends the frames, and the Runner passes values but
// bills every send by its encoded frame length.
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
// brings its wire format along; the registry is how the runtimes turn
// Message values into frames and back without importing any protocol
// package (which would invert the layering).

// Registered message type IDs. The space is append-only: an ID, once
// assigned, keeps its meaning forever (frames may be captured to disk).
// Low byte groups by package so hexdumps stay readable.
const (
	// IDRaw is the opaque byte payload (see Raw).
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

	// Package tournament: the Gale–Shapley and backup-placement
	// contenders' messages.
	IDGSMsg uint16 = 0x0501
	IDBPMsg uint16 = 0x0502
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
	Encode func(msg Message, buf []byte) []byte
	// Decode parses one payload. It must consume exactly payload and
	// reject non-canonical bytes.
	Decode func(payload []byte) (Message, error)
	// Sample returns a valid pseudo-random instance drawn from src.
	Sample func(src *rng.Source) Message
}

// entry is one registration. Both maps share it, so the send path's
// type-directed lookup is a single map read.
type entry struct {
	id    uint16
	codec Codec
}

// codecTable is one immutable generation of the registry. Register
// publishes a new table; a reader loads whichever table is current and
// reads its maps without a lock.
type codecTable struct {
	byID   map[uint16]*entry
	byType map[reflect.Type]*entry
}

// codecRegistry is a copy-on-write codec registry. Lookups run on
// every Runner send and every Cluster encode and decode, so they take
// no lock. Codecs register in init, so Register's copy of the table is
// paid at start-up only.
type codecRegistry struct {
	mu    sync.Mutex // serializes writers; readers never take it
	table atomic.Pointer[codecTable]
}

// registry is the process-wide registry behind the exported functions.
var registry codecRegistry

// noCodecs is the table of a registry nothing has registered with.
var noCodecs = codecTable{byID: map[uint16]*entry{}, byType: map[reflect.Type]*entry{}}

// load returns the current table.
func (r *codecRegistry) load() *codecTable {
	if t := r.table.Load(); t != nil {
		return t
	}
	return &noCodecs
}

func (r *codecRegistry) register(id uint16, c Codec) {
	if c.Name == "" || c.Type == nil || c.Encode == nil || c.Decode == nil || c.Sample == nil {
		panic(fmt.Sprintf("simnet: incomplete codec registration for ID %#04x", id))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.load()
	if prev, dup := old.byID[id]; dup {
		panic(fmt.Sprintf("simnet: ID %#04x registered twice (%s, %s)", id, prev.codec.Name, c.Name))
	}
	if prev, dup := old.byType[c.Type]; dup {
		panic(fmt.Sprintf("simnet: type %v registered twice (%#04x, %#04x)", c.Type, prev.id, id))
	}
	next := &codecTable{byID: maps.Clone(old.byID), byType: maps.Clone(old.byType)}
	e := &entry{id: id, codec: c}
	next.byID[id] = e
	next.byType[c.Type] = e
	r.table.Store(next)
}

// Register installs a codec under id. It is meant to be called from
// protocol packages' init functions; duplicate IDs, duplicate types,
// and incomplete codecs are programming errors and panic.
func Register(id uint16, c Codec) { registry.register(id, c) }

// lookupType returns the registration of msg's concrete type, or nil.
func (r *codecRegistry) lookupType(msg Message) *entry {
	return r.load().byType[reflect.TypeOf(msg)]
}

// lookupID returns the registration under id, or nil.
func (r *codecRegistry) lookupID(id uint16) *entry {
	return r.load().byID[id]
}

// CodecByID returns the codec registered under id.
func CodecByID(id uint16) (Codec, bool) {
	if e := registry.lookupID(id); e != nil {
		return e.codec, true
	}
	return Codec{}, false
}

// CodecFor returns the registered ID and codec for msg's concrete type.
func CodecFor(msg Message) (uint16, Codec, bool) {
	if e := registry.lookupType(msg); e != nil {
		return e.id, e.codec, true
	}
	return 0, Codec{}, false
}

// RegisteredIDs returns every registered type ID in ascending order —
// the iteration surface of the generic round-trip tests and the fuzz
// corpus builder.
func RegisteredIDs() []uint16 {
	byID := registry.load().byID
	ids := make([]uint16, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// EmptyCodec returns the codec of a payload-less message type, whose
// information is its arrival (a heartbeat, an environment command):
// the frame header is the whole message. value returns the type's
// only value.
func EmptyCodec(name string, typ reflect.Type, value func() Message) Codec {
	return Codec{
		Name:    name,
		Version: 1,
		Type:    typ,
		Encode:  func(_ Message, buf []byte) []byte { return buf },
		Decode: func(payload []byte) (Message, error) {
			if len(payload) != 0 {
				return nil, fmt.Errorf("%s payload is %d bytes, want 0", name, len(payload))
			}
			return value(), nil
		},
		Sample: func(*rng.Source) Message { return value() },
	}
}

// AppendFrame encodes msg as one complete frame (header + payload)
// appended to buf. It fails if msg's type has no registered codec or
// the encoded frame would exceed MaxFrame.
func AppendFrame(buf []byte, msg Message) ([]byte, error) {
	return registry.appendFrame(buf, msg)
}

func (r *codecRegistry) appendFrame(buf []byte, msg Message) ([]byte, error) {
	e := r.lookupType(msg)
	if e == nil {
		return buf, fmt.Errorf("simnet: no codec registered for %T", msg)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, e.codec.Version, byte(e.id>>8), byte(e.id))
	buf = e.codec.Encode(msg, buf)
	frameLen := len(buf) - start - 4 // version + id + payload
	if frameLen+4 > MaxFrame {
		return buf[:start], fmt.Errorf("simnet: %s frame of %d bytes exceeds MaxFrame", e.codec.Name, frameLen+4)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(frameLen))
	return buf, nil
}

// EncodeFrame is AppendFrame into a fresh buffer.
func EncodeFrame(msg Message) ([]byte, error) {
	return AppendFrame(nil, msg)
}

// DecodeFrame parses the first frame of data and returns the decoded
// message and the number of bytes consumed (header included). Frames
// concatenate, so callers loop: decode, advance by consumed, repeat.
func DecodeFrame(data []byte) (Message, int, error) {
	return registry.decodeFrame(data)
}

func (r *codecRegistry) decodeFrame(data []byte) (Message, int, error) {
	if len(data) < frameOverhead {
		return nil, 0, fmt.Errorf("simnet: short frame header (%d bytes)", len(data))
	}
	frameLen := binary.BigEndian.Uint32(data)
	if frameLen < frameOverhead-4 {
		return nil, 0, fmt.Errorf("simnet: frame length %d below header minimum", frameLen)
	}
	// Compared without adding to frameLen: a length prefix near 2^32
	// would wrap the sum past the bound.
	if frameLen > MaxFrame-4 {
		return nil, 0, fmt.Errorf("simnet: frame length %d exceeds MaxFrame", uint64(frameLen)+4)
	}
	total := int(frameLen) + 4
	if len(data) < total {
		return nil, 0, fmt.Errorf("simnet: truncated frame (%d of %d bytes)", len(data), total)
	}
	ver := data[4]
	id := uint16(data[5])<<8 | uint16(data[6])
	e := r.lookupID(id)
	if e == nil {
		return nil, 0, fmt.Errorf("simnet: unknown message type %#04x", id)
	}
	if ver != e.codec.Version {
		return nil, 0, fmt.Errorf("simnet: %s version %d, codec speaks %d", e.codec.Name, ver, e.codec.Version)
	}
	msg, err := e.codec.Decode(data[frameOverhead:total])
	if err != nil {
		return nil, 0, fmt.Errorf("simnet: %s payload: %v", e.codec.Name, err)
	}
	return msg, total, nil
}

// Raw is an opaque payload: a byte string carried verbatim. It gives
// the wire layer a message type of its own (runtime tests, nested-frame
// samples, future control traffic) and demonstrates the registration
// pattern without touching any protocol package.
type Raw []byte

// Kind implements Kinder.
func (Raw) Kind() string { return "RAW" }

func init() {
	Register(IDRaw, Codec{
		Name:    "simnet.Raw",
		Version: 1,
		Type:    reflect.TypeOf(Raw(nil)),
		Encode: func(msg Message, buf []byte) []byte {
			return append(buf, msg.(Raw)...)
		},
		Decode: func(payload []byte) (Message, error) {
			return Raw(append([]byte(nil), payload...)), nil
		},
		Sample: func(src *rng.Source) Message {
			b := make(Raw, src.Uint64n(24))
			for i := range b {
				b[i] = byte(src.Uint64())
			}
			return b
		},
	})
}
