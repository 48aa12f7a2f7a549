package simnet

import (
	"sort"
	"strings"
	"testing"
	"unsafe"

	"overlaymatch/internal/rng"
)

// checkQueueOrder drives q through random push/pop interleavings and
// fails unless every pop returns the least pending event of a
// reference sort by (time, seq). draw picks each event's time.
func checkQueueOrder(t *testing.T, q *eventQueue, src *rng.Source, draw func() float64) {
	t.Helper()
	var pending []event
	seq := 0
	popAndCheck := func() {
		sort.Slice(pending, func(i, j int) bool {
			a, b := pending[i], pending[j]
			return a.time < b.time || a.time == b.time && a.seq < b.seq
		})
		got := q.pop()
		if got.time != pending[0].time || got.seq != pending[0].seq {
			t.Fatalf("popped (%v, %d), want (%v, %d)", got.time, got.seq, pending[0].time, pending[0].seq)
		}
		pending = pending[1:]
	}
	for step := 0; step < 3000; step++ {
		// Pushes outweigh pops, so the heap grows several levels deep;
		// every 750 steps it drains completely.
		if len(pending) == 0 || src.Bool(0.55) {
			seq++
			e := event{time: draw(), seq: seq}
			q.push(e)
			pending = append(pending, e)
		} else {
			popAndCheck()
		}
		if step%750 == 749 {
			for len(pending) > 0 {
				popAndCheck()
			}
		}
		if len(*q) != len(pending) {
			t.Fatalf("queue holds %d events, want %d", len(*q), len(pending))
		}
	}
	for len(pending) > 0 {
		popAndCheck()
	}
}

// TestEventQueueMatchesSortedOrder: the 4-ary heap pops exactly the
// (time, seq) order — with distinct times, with a handful of tied
// times, and with every time equal, where seq alone decides — on a
// fresh array and on one a failed run handed back to the pool.
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	times := []struct {
		name string
		draw func(src *rng.Source) float64
	}{
		{"distinct", func(src *rng.Source) float64 { return 100 * src.Float64() }},
		{"tied", func(src *rng.Source) float64 { return float64(src.Uint64n(5)) }},
		{"all equal", func(*rng.Source) float64 { return 1 }},
	}
	for i, tc := range times {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(uint64(i + 1))
			checkQueueOrder(t, new(eventQueue), src, func() float64 { return tc.draw(src) })
		})
	}

	// A run that fails with events still queued returns its array to
	// the pool: it must come back empty, hold no message, and keep
	// ordering correctly. The test owns the array from here on; no
	// other Runner runs in this package's tests meanwhile.
	burst := handlerFunc{init: func(ctx Context) {
		for i := 0; i < 100; i++ {
			ctx.Send(1, Raw{byte(i)})
		}
	}}
	r := NewRunner(2, Options{Seed: 5, MaxDeliveries: 1})
	q := r.queue
	if _, err := r.Run([]Handler{burst, stubborn{}}); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want the delivery cap with 98 events queued", err)
	}
	if r.queue != nil || len(*q) != 0 || cap(*q) < 100 {
		t.Fatalf("returned queue: len %d, cap %d, still held by the runner: %v", len(*q), cap(*q), r.queue != nil)
	}
	for i, e := range (*q)[:cap(*q)] {
		if e.msg != nil {
			t.Fatalf("returned queue slot %d still holds %v", i, e.msg)
		}
	}
	for i, tc := range times {
		t.Run("recycled "+tc.name, func(t *testing.T) {
			src := rng.New(uint64(i + 10))
			checkQueueOrder(t, q, src, func() float64 { return tc.draw(src) })
		})
	}
}

// TestEventSize pins the event layout on 64-bit platforms: every
// queued message moves through the heap's sifts, so a field that grows
// the event slows every delivery.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(event{}) != 48 {
		t.Fatalf("event is %d bytes, want 48", unsafe.Sizeof(event{}))
	}
}
