package transport

// DropNextDatagram makes nd's next outgoing datagram vanish unsent, as
// if the kernel had lost it.
func DropNextDatagram(nd *UDPNode) { nd.dropNext.Store(true) }

// Closed reports whether nd has been shut down.
func Closed(nd *UDPNode) bool { return nd.closed.Load() }
