package phased

import (
	"fmt"
	"reflect"

	"overlaymatch/internal/lid"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// Wire codec for the phase-tagged LID message (simnet's wire format):
// one phase byte (1 or 2) followed by the inner LID opcode byte.
func init() {
	simnet.Register(simnet.IDPhasedMsg, simnet.Codec{
		Name:    "phased.Msg",
		Version: 1,
		Type:    reflect.TypeOf(Msg{}),
		Encode: func(msg simnet.Message, buf []byte) []byte {
			m := msg.(Msg)
			op := byte(0)
			if m.Inner.IsProp {
				op = 1
			}
			return append(buf, m.Phase, op)
		},
		Decode: func(payload []byte) (simnet.Message, error) {
			if len(payload) != 2 {
				return nil, fmt.Errorf("phased payload is %d bytes, want 2", len(payload))
			}
			if payload[0] != 1 && payload[0] != 2 {
				return nil, fmt.Errorf("phased phase %d is not 1 or 2", payload[0])
			}
			if payload[1] > 1 {
				return nil, fmt.Errorf("phased opcode %#02x is not 0 or 1", payload[1])
			}
			return Msg{Phase: payload[0], Inner: lid.Msg{IsProp: payload[1] == 1}}, nil
		},
		Sample: func(src *rng.Source) simnet.Message {
			return Msg{
				Phase: byte(1 + src.Uint64n(2)),
				Inner: lid.Msg{IsProp: src.Uint64n(2) == 1},
			}
		},
	})
}
