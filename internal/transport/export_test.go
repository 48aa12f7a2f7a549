package transport

// DropNextDatagram makes nd's next outgoing datagram vanish unsent, as
// if the kernel had lost it.
func DropNextDatagram(nd *UDPNode) { nd.dropNext.Store(true) }
