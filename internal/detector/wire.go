package detector

import (
	"reflect"

	"overlaymatch/internal/simnet"
)

// Wire codecs for the heartbeat messages (simnet's wire format). Both
// are payload-less — a heartbeat's information is its arrival. The
// tick token is a local timer and deliberately has no codec.
func init() {
	simnet.Register(simnet.IDDetectorHB, simnet.EmptyCodec("detector.hbMsg",
		reflect.TypeOf(hbMsg{}), func() simnet.Message { return hbMsg{} }))
	simnet.Register(simnet.IDDetectorHBAck, simnet.EmptyCodec("detector.hbAckMsg",
		reflect.TypeOf(hbAckMsg{}), func() simnet.Message { return hbAckMsg{} }))
}
