package reliable

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// Wire codecs for the ack/retransmit framing (simnet's wire format).
//
// A DATA frame is the big-endian sequence number followed by the inner
// protocol message encoded as a complete nested frame — the nesting is
// literal on the wire, exactly as the Endpoint nests payloads in Go
// values, so any registered protocol message rides the reliable layer
// with no per-protocol cases here. An ACK frame is the sequence number
// alone. The retransmit timer token never crosses the wire (it is a
// local self-delivery) and has no codec on purpose: encoding it would
// hide a protocol bug.
func init() {
	simnet.Register(simnet.IDReliableData, simnet.Codec{
		Name:    "reliable.dataMsg",
		Version: 1,
		Type:    reflect.TypeOf(dataMsg{}),
		Encode: func(msg simnet.Message, buf []byte) []byte {
			m := msg.(dataMsg)
			buf = binary.BigEndian.AppendUint32(buf, m.Seq)
			buf, err := simnet.AppendFrame(buf, m.Payload)
			if err != nil {
				// Send-side failure: the inner protocol handed the
				// runtime an unregistered type. That is a wiring bug,
				// not a runtime condition — fail loudly.
				panic(fmt.Sprintf("reliable: encoding DATA payload: %v", err))
			}
			return buf
		},
		Decode: func(payload []byte) (simnet.Message, error) {
			if len(payload) < 4 {
				return nil, fmt.Errorf("DATA payload is %d bytes, want >= 4", len(payload))
			}
			seq := binary.BigEndian.Uint32(payload)
			inner, consumed, err := simnet.DecodeFrame(payload[4:])
			if err != nil {
				return nil, fmt.Errorf("DATA inner frame: %v", err)
			}
			if consumed != len(payload)-4 {
				return nil, fmt.Errorf("DATA inner frame leaves %d trailing bytes", len(payload)-4-consumed)
			}
			return dataMsg{Seq: seq, Payload: inner}, nil
		},
		Sample: func(src *rng.Source) simnet.Message {
			// The nested payload samples simnet.Raw so this package
			// stays below the protocols in the import order.
			inner := make(simnet.Raw, src.Uint64n(16))
			for i := range inner {
				inner[i] = byte(src.Uint64())
			}
			return dataMsg{Seq: uint32(src.Uint64()), Payload: inner}
		},
	})
	simnet.Register(simnet.IDReliableAck, simnet.Codec{
		Name:    "reliable.ackMsg",
		Version: 1,
		Type:    reflect.TypeOf(ackMsg{}),
		Encode: func(msg simnet.Message, buf []byte) []byte {
			return binary.BigEndian.AppendUint32(buf, msg.(ackMsg).Seq)
		},
		Decode: func(payload []byte) (simnet.Message, error) {
			if len(payload) != 4 {
				return nil, fmt.Errorf("ACK payload is %d bytes, want 4", len(payload))
			}
			return ackMsg{Seq: binary.BigEndian.Uint32(payload)}, nil
		},
		Sample: func(src *rng.Source) simnet.Message {
			return ackMsg{Seq: uint32(src.Uint64())}
		},
	})
}
