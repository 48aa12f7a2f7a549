package robust

import (
	"reflect"
	"testing"

	"overlaymatch/internal/lid"
	"overlaymatch/internal/simnet"
)

// TolerantNode deliberately has no wire messages of its own: it speaks
// lid.Msg verbatim (same PROP/REJ alphabet, hardened semantics), so
// robust and plain nodes interoperate frame-for-frame. This test pins
// that contract to the codec registry — if robust ever grows an own
// message type, its registration must land with it.
func TestRobustTrafficHasCodec(t *testing.T) {
	id, c, ok := simnet.CodecFor(lid.Msg{IsProp: true})
	if !ok {
		t.Fatal("lid.Msg (robust's entire wire alphabet) has no registered codec")
	}
	if id != simnet.IDLIDMsg {
		t.Fatalf("lid.Msg registered at %#04x, want %#04x", id, simnet.IDLIDMsg)
	}
	if c.Type != reflect.TypeOf(lid.Msg{}) {
		t.Fatalf("codec type %v, want lid.Msg", c.Type)
	}
	// The timeout token stays local on purpose: finding it in the
	// registry would mean a protocol-internal timer leaked to the wire.
	if _, _, ok := simnet.CodecFor(timeoutToken{}); ok {
		t.Fatal("timeoutToken must not have a wire codec — it is a local timer self-delivery")
	}
}
