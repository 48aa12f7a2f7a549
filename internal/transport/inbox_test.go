package transport

import (
	"sync"
	"testing"
	"time"
)

func TestInboxFIFO(t *testing.T) {
	ib := newInbox()
	for i := 0; i < 10; i++ {
		ib.push(udpDelivery{from: int32(i)})
	}
	if ib.len() != 10 {
		t.Fatalf("len = %d", ib.len())
	}
	for i := 0; i < 10; i++ {
		d, ok := ib.pop()
		if !ok || d.from != int32(i) {
			t.Fatalf("pop %d = (%v,%v)", i, d.from, ok)
		}
	}
}

func TestInboxCloseUnblocksPop(t *testing.T) {
	ib := newInbox()
	done := make(chan bool)
	go func() {
		_, ok := ib.pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	ib.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop on closed empty inbox returned ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not unblock on close")
	}
	// Pushes after close are dropped.
	ib.push(udpDelivery{from: 1})
	if ib.len() != 0 {
		t.Fatal("push after close was queued")
	}
}

// TestInboxConcurrentPushers: senders never block one another, and each
// sender's items arrive in push order.
func TestInboxConcurrentPushers(t *testing.T) {
	ib := newInbox()
	const pushers, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ib.push(udpDelivery{from: int32(p), lam: uint64(i)})
			}
		}(p)
	}
	next := make([]uint64, pushers)
	for i := 0; i < pushers*each; i++ {
		d, ok := ib.pop()
		if !ok {
			t.Fatal("pop failed mid-stream")
		}
		if d.lam != next[d.from] {
			t.Fatalf("per-sender order violated for %d: got %d, want %d", d.from, d.lam, next[d.from])
		}
		next[d.from]++
	}
	wg.Wait()
	if ib.len() != 0 {
		t.Fatal("items left over")
	}
}
