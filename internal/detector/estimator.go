package detector

import "math"

// Estimator is the phi-accrual core: a sliding window of positive
// samples (inter-arrival gaps, response times, ...) summarized as a
// normal distribution with a floored standard deviation. It is shared
// by the Monitor (heartbeat gaps in ticks) and by robust.TolerantNode
// (proposal response times in virtual time units) — "the timeout paths
// reuse the detector clock".
type Estimator struct {
	window []float64
	idx    int
	count  int
	floor  float64

	// Memos for Threshold, which a Monitor asks once per peer per tick:
	// the window summary changes only in Observe (stale marks it), and
	// the normal quantile z depends only on phi.
	stale     bool
	mean, std float64
	zFor, z   float64 // z is the quantile of phi zFor, once zSet
	zSet      bool
}

// NewEstimator builds an estimator over a sliding window of the given
// size with the given standard-deviation floor.
func NewEstimator(window int, floor float64) *Estimator {
	if window < 1 {
		window = 1
	}
	if floor < 0 {
		floor = 0
	}
	return &Estimator{window: make([]float64, window), floor: floor}
}

// Observe records one sample, evicting the oldest when the window is
// full.
func (e *Estimator) Observe(v float64) {
	e.window[e.idx] = v
	e.idx = (e.idx + 1) % len(e.window)
	if e.count < len(e.window) {
		e.count++
	}
	e.stale = true
}

// Count returns the number of samples currently in the window.
func (e *Estimator) Count() int { return e.count }

// MeanStd returns the windowed mean and the floored standard
// deviation. With no samples it returns (0, floor).
func (e *Estimator) MeanStd() (mean, std float64) {
	if e.count == 0 {
		return 0, e.floor
	}
	if e.stale {
		e.mean, e.std = e.summarize()
		e.stale = false
	}
	return e.mean, e.std
}

// summarize computes MeanStd over the current window.
func (e *Estimator) summarize() (mean, std float64) {
	for i := 0; i < e.count; i++ {
		mean += e.window[i]
	}
	mean /= float64(e.count)
	var ss float64
	for i := 0; i < e.count; i++ {
		d := e.window[i] - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(e.count))
	if std < e.floor {
		std = e.floor
	}
	return mean, std
}

// phiCap bounds the accrual value so arithmetic stays finite when the
// tail probability underflows to zero.
const phiCap = 350

// Phi returns the accrual suspicion value for the given elapsed
// silence: -log10 of the probability that a normally distributed gap
// exceeds elapsed. Larger phi = less plausible that the peer is merely
// slow. Returns 0 with no samples (no evidence either way).
func (e *Estimator) Phi(elapsed float64) float64 {
	if e.count == 0 {
		return 0
	}
	mean, std := e.MeanStd()
	if std <= 0 {
		if elapsed > mean {
			return phiCap
		}
		return 0
	}
	p := 0.5 * math.Erfc((elapsed-mean)/(std*math.Sqrt2))
	if p <= 0 {
		return phiCap
	}
	phi := -math.Log10(p)
	if phi > phiCap {
		return phiCap
	}
	if phi < 0 {
		return 0
	}
	return phi
}

// Threshold returns the smallest elapsed value whose Phi reaches the
// given threshold — the adaptive timeout implied by the current
// window. With no samples it returns +Inf (no adaptive verdict yet).
func (e *Estimator) Threshold(phi float64) float64 {
	if e.count == 0 {
		return math.Inf(1)
	}
	mean, std := e.MeanStd()
	if std <= 0 {
		return mean
	}
	if phi >= phiCap {
		phi = phiCap
	}
	if !e.zSet || phi != e.zFor {
		e.z, e.zFor, e.zSet = quantile(phi), phi, true
	}
	return mean + e.z*std
}

// quantile inverts phi = -log10(0.5·erfc(z/√2)) for z by bisection;
// the function is monotone and the cap bounds the search interval.
func quantile(phi float64) float64 {
	lo, hi := 0.0, 45.0 // erfc(45/√2) underflows well past phiCap
	for i := 0; i < 64; i++ {
		z := (lo + hi) / 2
		got := -math.Log10(0.5 * math.Erfc(z/math.Sqrt2))
		if math.IsInf(got, 1) || got >= phi {
			hi = z
		} else {
			lo = z
		}
	}
	return hi
}
