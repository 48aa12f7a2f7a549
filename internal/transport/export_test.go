package transport

import "overlaymatch/internal/simnet"

// DropNextDatagram makes nd's next outgoing datagram vanish unsent, as
// if the kernel had lost it.
func DropNextDatagram(nd *UDPNode) { nd.dropNext.Store(true) }

// Closed reports whether nd has been shut down.
func Closed(nd *UDPNode) bool { return nd.closed.Load() }

// InProcess reports whether c runs on the in-process wire.
func InProcess(c *Cluster) bool {
	return len(c.nodes) > 0 && c.nodes[0].sh.local != nil
}

// SetTimer arms a timer on nd the way its handler's context would.
func SetTimer(nd *UDPNode, delay float64, msg simnet.Message) {
	(&udpCtx{nd: nd}).SetTimer(delay, msg)
}
