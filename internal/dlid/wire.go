package dlid

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// Wire codecs for the maintenance protocol (package transport).
//
// Msg is one opcode byte (the wireKind, BYE..DROP) followed by the two
// big-endian uint32 sequencing fields — Seq then Ver — matching the
// 17-byte nominal WireSize model. The environment commands CmdLeave
// and CmdJoin carry no payload; registering them lets a deployment
// feed membership events (package dynamic's churn schedules translate
// into exactly these) to remote nodes over the same wire the protocol
// uses, instead of the Runner.Schedule side door.
func init() {
	transport.Register(transport.IDDlidMsg, transport.Codec{
		Name:    "dlid.Msg",
		Version: 1,
		Type:    reflect.TypeOf(Msg{}),
		Encode: func(msg simnet.Message, buf []byte) []byte {
			m := msg.(Msg)
			buf = append(buf, byte(m.K))
			buf = binary.BigEndian.AppendUint32(buf, m.Seq)
			return binary.BigEndian.AppendUint32(buf, m.Ver)
		},
		Decode: func(payload []byte) (simnet.Message, error) {
			if len(payload) != 9 {
				return nil, fmt.Errorf("dlid payload is %d bytes, want 9", len(payload))
			}
			k := wireKind(payload[0])
			if k > kDrop {
				return nil, fmt.Errorf("dlid opcode %d out of range", payload[0])
			}
			return Msg{
				K:   k,
				Seq: binary.BigEndian.Uint32(payload[1:5]),
				Ver: binary.BigEndian.Uint32(payload[5:9]),
			}, nil
		},
		Sample: func(src *rng.Source) simnet.Message {
			return Msg{
				K:   wireKind(src.Uint64n(uint64(kDrop) + 1)),
				Seq: uint32(src.Uint64()),
				Ver: uint32(src.Uint64()),
			}
		},
	})
	transport.Register(transport.IDDlidCmdLeave, transport.EmptyCodec("dlid.CmdLeave",
		reflect.TypeOf(CmdLeave{}), func() simnet.Message { return CmdLeave{} }))
	transport.Register(transport.IDDlidCmdJoin, transport.EmptyCodec("dlid.CmdJoin",
		reflect.TypeOf(CmdJoin{}), func() simnet.Message { return CmdJoin{} }))
}
