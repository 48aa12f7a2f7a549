package main

// The calibration kernel. This file imports only the standard library
// (bench_test.go enforces it): the kernel must not change when the code
// under test does, or it would stop measuring the machine.

import (
	"sort"
	"time"
)

// calibRefMs is the kernel's median on the machine the baseline in
// baseline.json was recorded on. Wall-clock end-to-end metrics are
// reported in reference seconds, raw × calibRefMs / (this run's kernel
// median), so a run on a machine that is temporarily slower or faster
// reads the same. Changing it invalidates every recorded baseline.
const calibRefMs = 24.0

// calibEvery is the longest stretch of workload time between two
// kernel runs.
const calibEvery = 500 * time.Millisecond

// calibKernel sorts a copy of a fixed xorshift slice of 2^18 ints,
// about 25 ms of single-threaded work that allocates nothing.
type calibKernel struct {
	src, work []int
	ms        []float64 // every run's duration, in milliseconds
	last      time.Time
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{src: make([]int, 1<<18), work: make([]int, 1<<18)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.src[i] = int(x)
	}
	return k
}

// once times one pass of the kernel.
func (k *calibKernel) once() time.Duration {
	start := time.Now()
	copy(k.work, k.src)
	sort.Ints(k.work)
	return time.Since(start)
}

// run times one pass and records it.
func (k *calibKernel) run() {
	d := k.once()
	k.ms = append(k.ms, float64(d)/float64(time.Millisecond))
	k.last = time.Now()
}

// maybe runs the kernel when calibEvery has passed since the last run;
// the workloads call it between samples.
func (k *calibKernel) maybe() {
	if time.Since(k.last) >= calibEvery {
		k.run()
	}
}
