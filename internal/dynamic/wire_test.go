package dynamic

import (
	"testing"

	"overlaymatch/internal/dlid"
	"overlaymatch/internal/simnet"
)

// The churn engine is centralized — it has no simnet messages of its
// own. What crosses a wire in a deployment is its membership feed:
// leave/join events, which map one-to-one onto dlid's environment
// commands. This test pins that mapping to the codec registry so a
// remote churn driver can always speak the events over the transport
// layer.
func TestChurnFeedEventsHaveCodecs(t *testing.T) {
	if id, _, ok := simnet.CodecFor(dlid.CmdLeave{}); !ok || id != simnet.IDDlidCmdLeave {
		t.Fatalf("dlid.CmdLeave codec = (%#04x, %v), want (%#04x, true)", id, ok, simnet.IDDlidCmdLeave)
	}
	if id, _, ok := simnet.CodecFor(dlid.CmdJoin{}); !ok || id != simnet.IDDlidCmdJoin {
		t.Fatalf("dlid.CmdJoin codec = (%#04x, %v), want (%#04x, true)", id, ok, simnet.IDDlidCmdJoin)
	}
}
