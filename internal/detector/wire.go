package detector

import (
	"reflect"

	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// Wire codecs for the heartbeat messages (package transport). Both are
// payload-less — a heartbeat's information is its arrival. The tick
// token is a local timer and deliberately has no codec.
func init() {
	transport.Register(transport.IDDetectorHB, transport.EmptyCodec("detector.hbMsg",
		reflect.TypeOf(hbMsg{}), func() simnet.Message { return hbMsg{} }))
	transport.Register(transport.IDDetectorHBAck, transport.EmptyCodec("detector.hbAckMsg",
		reflect.TypeOf(hbAckMsg{}), func() simnet.Message { return hbAckMsg{} }))
}
