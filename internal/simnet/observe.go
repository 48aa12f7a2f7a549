package simnet

import "overlaymatch/internal/obs"

// Observable is the optional Context capability handing protocol
// layers the run's telemetry recorder, following the upcall pattern
// (TimerSetter, SuspectHandler): layers that open spans type-assert
// the capability through ObserverOf and work unchanged — at zero
// recording cost — when telemetry is off, because a nil *obs.Recorder
// is inert. Context wrappers (reliable, detector) must forward this
// interface like they forward TimerSetter.
type Observable interface {
	Observer() *obs.Recorder
}

// ObserverOf extracts the telemetry recorder from a Context, or nil.
func ObserverOf(ctx Context) *obs.Recorder {
	if o, ok := ctx.(Observable); ok {
		return o.Observer()
	}
	return nil
}
