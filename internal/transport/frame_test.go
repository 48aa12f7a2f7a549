package transport_test

// The generic suite of simnet's wire format, kept with the runtime that
// sends the frames. It lives in an external test package so it can
// import every protocol package for the side effect of its wire.go
// registration — exactly how a deployment binary acquires its codec
// table — while packages simnet and transport stay below the protocols
// in the import order.

import (
	"bytes"
	"strings"
	"testing"

	_ "overlaymatch/internal/detector"
	_ "overlaymatch/internal/dlid"
	_ "overlaymatch/internal/lid"
	_ "overlaymatch/internal/phased"
	_ "overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
	_ "overlaymatch/internal/tournament"
)

// roundTripSeeds is the per-type sample count of the property test.
const roundTripSeeds = 200

// TestRegistryCoversProtocolStack pins the registered ID set: every
// wire message of every protocol package must be present, so silently
// dropping a wire.go registration (or its import) fails here rather
// than at the first socket run.
func TestRegistryCoversProtocolStack(t *testing.T) {
	want := []uint16{
		simnet.IDRaw,
		simnet.IDLIDMsg,
		simnet.IDPhasedMsg,
		simnet.IDDlidMsg,
		simnet.IDDlidCmdLeave,
		simnet.IDDlidCmdJoin,
		simnet.IDReliableData,
		simnet.IDReliableAck,
		simnet.IDDetectorHB,
		simnet.IDDetectorHBAck,
		simnet.IDGSMsg,
		simnet.IDBPMsg,
	}
	got := simnet.RegisteredIDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d codecs, want %d (%#04x)", len(got), len(want), got)
	}
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("RegisteredIDs()[%d] = %#04x, want %#04x", i, got[i], id)
		}
	}
}

// TestRoundTripProperty is the satellite property test: for every
// registered type, encode -> decode -> encode must be byte-identical
// across roundTripSeeds sampled instances. Byte-identity of the
// second encoding (rather than value equality of the messages) is the
// stronger claim: it proves the decoder is exact and the encoding
// canonical, which is what FuzzFrameDecode's accept-implies-canonical
// invariant rests on.
func TestRoundTripProperty(t *testing.T) {
	for _, id := range simnet.RegisteredIDs() {
		c, ok := simnet.CodecByID(id)
		if !ok {
			t.Fatalf("CodecByID(%#04x) missing after RegisteredIDs listed it", id)
		}
		t.Run(c.Name, func(t *testing.T) {
			src := rng.New(0xF4A7C15 ^ uint64(id))
			for i := 0; i < roundTripSeeds; i++ {
				msg := c.Sample(src)
				first, err := simnet.EncodeFrame(msg)
				if err != nil {
					t.Fatalf("sample %d: encode: %v", i, err)
				}
				decoded, consumed, err := simnet.DecodeFrame(first)
				if err != nil {
					t.Fatalf("sample %d: decode: %v", i, err)
				}
				if consumed != len(first) {
					t.Fatalf("sample %d: decode consumed %d of %d bytes", i, consumed, len(first))
				}
				second, err := simnet.EncodeFrame(decoded)
				if err != nil {
					t.Fatalf("sample %d: re-encode: %v", i, err)
				}
				if !bytes.Equal(first, second) {
					t.Fatalf("sample %d: round trip not byte-identical\n first: %x\nsecond: %x", i, first, second)
				}
			}
		})
	}
}

// TestFrameHeader checks the documented layout directly on one frame:
// big-endian length covering version+ID+payload, then version, then ID.
func TestFrameHeader(t *testing.T) {
	frame, err := simnet.EncodeFrame(simnet.Raw("abc"))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	want := []byte{0, 0, 0, 6, 1, 0, 1, 'a', 'b', 'c'}
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame = %x, want %x", frame, want)
	}
}

// TestFrameConcatenation streams one sample of every registered type
// into a single buffer and decodes them back in order — the coalesced
// datagram body in miniature.
func TestFrameConcatenation(t *testing.T) {
	src := rng.New(7)
	var buf []byte
	var frames [][]byte
	for _, id := range simnet.RegisteredIDs() {
		c, _ := simnet.CodecByID(id)
		msg := c.Sample(src)
		single, err := simnet.EncodeFrame(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name, err)
		}
		frames = append(frames, single)
		if buf, err = simnet.AppendFrame(buf, msg); err != nil {
			t.Fatalf("%s: append: %v", c.Name, err)
		}
	}
	rest := buf
	for i, want := range frames {
		msg, consumed, err := simnet.DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		re, err := simnet.EncodeFrame(msg)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(re, want) {
			t.Fatalf("frame %d decoded to %x, want %x", i, re, want)
		}
		rest = rest[consumed:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding every frame", len(rest))
	}
}

// TestDecodeStrictness enumerates the malformed-input classes the
// decoder must reject, each with the error it must give.
func TestDecodeStrictness(t *testing.T) {
	good, err := simnet.EncodeFrame(simnet.Raw("payload"))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "short frame header"},
		{"short header", good[:6], "short frame header"},
		{"truncated payload", good[:len(good)-2], "truncated frame"},
		{"length below header minimum", []byte{0, 0, 0, 2, 1, 0, 1}, "below header minimum"},
		{"length above MaxFrame", []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 1}, "exceeds MaxFrame"},
		// Adding the 4-byte prefix to this length wraps a uint32 to 0.
		{"length wrapping uint32", []byte{0xFF, 0xFF, 0xFF, 0xFC, 1, 0, 1}, "exceeds MaxFrame"},
		{"unknown type ID", []byte{0, 0, 0, 3, 1, 0xEE, 0xEE}, "unknown message type 0xeeee"},
		{"wrong codec version", []byte{0, 0, 0, 3, 99, 0, 1}, "version 99"},
		{"non-canonical lid opcode", []byte{0, 0, 0, 4, 1, 1, 1, 7}, "lid opcode"},
		{"lid payload too long", []byte{0, 0, 0, 5, 1, 1, 1, 1, 1}, "lid payload is 2 bytes"},
		{"gs opcode out of range", []byte{0, 0, 0, 4, 1, 5, 1, 4}, "gs opcode 4 out of range"},
		{"bp frame with a payload", []byte{0, 0, 0, 4, 1, 5, 2, 0}, "bpMsg payload is 1 bytes"},
	}
	for _, tc := range cases {
		_, _, err := simnet.DecodeFrame(tc.data)
		if err == nil {
			t.Errorf("%s: decode accepted %x", tc.name, tc.data)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode of %x failed with %q, want %q", tc.name, tc.data, err, tc.want)
		}
	}
}

// unregistered is a message type deliberately missing from the registry.
type unregistered struct{}

func (unregistered) Kind() string { return "NOPE" }

func TestUnregisteredTypeFails(t *testing.T) {
	var msg simnet.Message = unregistered{}
	if _, err := simnet.EncodeFrame(msg); err == nil {
		t.Fatal("EncodeFrame accepted an unregistered type")
	}
	if _, err := simnet.AppendFrame(nil, msg); err == nil {
		t.Fatal("AppendFrame accepted an unregistered type")
	}
}

// TestCodecForAgreesWithRegistry ties the type-directed lookup to the
// ID-directed one.
func TestCodecForAgreesWithRegistry(t *testing.T) {
	src := rng.New(11)
	for _, id := range simnet.RegisteredIDs() {
		c, _ := simnet.CodecByID(id)
		gotID, gotC, ok := simnet.CodecFor(c.Sample(src))
		if !ok || gotID != id || gotC.Name != c.Name {
			t.Fatalf("CodecFor(%s sample) = (%#04x, %q, %v), want (%#04x, %q, true)",
				c.Name, gotID, gotC.Name, ok, id, c.Name)
		}
	}
}
