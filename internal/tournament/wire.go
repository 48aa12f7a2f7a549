package tournament

import (
	"fmt"
	"reflect"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// Wire codecs for the contenders' messages (simnet's wire format).
// gsMsg is one opcode byte, PROP..DROP in declaration order, so a GS
// frame is 8 bytes like a LID frame. bpMsg carries no payload: a
// backup-placement proposal is the 7-byte header alone.
func init() {
	simnet.Register(simnet.IDGSMsg, simnet.Codec{
		Name:    "tournament.gsMsg",
		Version: 1,
		Type:    reflect.TypeOf(gsMsg(0)),
		Encode: func(msg simnet.Message, buf []byte) []byte {
			return append(buf, byte(msg.(gsMsg)))
		},
		Decode: func(payload []byte) (simnet.Message, error) {
			if len(payload) != 1 {
				return nil, fmt.Errorf("gs payload is %d bytes, want 1", len(payload))
			}
			if m := gsMsg(payload[0]); m <= gsDropMsg {
				return m, nil
			}
			return nil, fmt.Errorf("gs opcode %d out of range", payload[0])
		},
		Sample: func(src *rng.Source) simnet.Message {
			return gsMsg(src.Uint64n(uint64(gsDropMsg) + 1))
		},
	})
	simnet.Register(simnet.IDBPMsg, simnet.EmptyCodec("tournament.bpMsg",
		reflect.TypeOf(bpMsg{}), func() simnet.Message { return bpMsg{} }))
}
