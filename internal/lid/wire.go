package lid

import (
	"fmt"
	"reflect"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// Wire codec for the LID message (simnet's wire format). The payload
// is a single opcode byte — 0x01 PROP, 0x00 REJ — so a LID frame is 8
// bytes, the size both runtimes bill. Package robust
// registers nothing of its own: TolerantNode speaks exactly these
// messages on the wire (its timeout token never leaves the node).
func init() {
	simnet.Register(simnet.IDLIDMsg, simnet.Codec{
		Name:    "lid.Msg",
		Version: 1,
		Type:    reflect.TypeOf(Msg{}),
		Encode: func(msg simnet.Message, buf []byte) []byte {
			m := msg.(Msg)
			if m.IsProp {
				return append(buf, 1)
			}
			return append(buf, 0)
		},
		Decode: func(payload []byte) (simnet.Message, error) {
			if len(payload) != 1 {
				return nil, fmt.Errorf("lid payload is %d bytes, want 1", len(payload))
			}
			switch payload[0] {
			case 0:
				return Msg{IsProp: false}, nil
			case 1:
				return Msg{IsProp: true}, nil
			}
			return nil, fmt.Errorf("lid opcode %#02x is not 0 or 1", payload[0])
		},
		Sample: func(src *rng.Source) simnet.Message {
			return Msg{IsProp: src.Uint64n(2) == 1}
		},
	})
}
