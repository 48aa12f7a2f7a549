package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, w := range []int{1, 2, 7, 64} {
		if got := Workers(w); got != w {
			t.Fatalf("Workers(%d) = %d", w, got)
		}
	}
}

// TestForEachChunkCoverage verifies every index is visited exactly once
// for a grid of (n, workers), including the degenerate shapes (empty
// range, more workers than items, workers=1 inline path).
func TestForEachChunkCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 100} {
			visits := make([]int32, n)
			ForEachChunk(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d workers=%d: bad chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

// TestForEachChunkInline pins the workers<=1 contract: the whole range
// arrives as one chunk on the calling goroutine (no goroutine spawn),
// and an empty range never calls fn.
func TestForEachChunkInline(t *testing.T) {
	calls := 0
	ForEachChunk(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("inline chunk [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("inline path called fn %d times", calls)
	}
	ForEachChunk(0, 4, func(lo, hi int) { t.Fatal("fn called for empty range") })
}

func TestForEachShard(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1001} {
		for _, workers := range []int{1, 2, 3, 8} {
			want := NumShards(n, workers)
			seen := make(map[int][2]int)
			var mu sync.Mutex
			ForEachShard(n, workers, func(shard, lo, hi int) {
				mu.Lock()
				seen[shard] = [2]int{lo, hi}
				mu.Unlock()
			})
			if n == 0 {
				if len(seen) != 0 {
					t.Fatalf("n=0: fn called")
				}
				continue
			}
			if len(seen) != want {
				t.Fatalf("n=%d workers=%d: %d shards, NumShards says %d", n, workers, len(seen), want)
			}
			// Shards must tile the range in shard order.
			next := 0
			for s := 0; s < len(seen); s++ {
				r, ok := seen[s]
				if !ok {
					t.Fatalf("n=%d workers=%d: missing shard %d", n, workers, s)
				}
				if r[0] != next {
					t.Fatalf("n=%d workers=%d: shard %d starts at %d, want %d", n, workers, s, r[0], next)
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: shards end at %d, want %d", n, workers, next, n)
			}
		}
	}
}

func TestMapOrderAndError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: Map[%d] = %d", workers, i, v)
			}
		}
		// Lowest-index error wins regardless of scheduling.
		_, err = Map(workers, 100, func(i int) (int, error) {
			if i%30 == 7 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom 7" {
			t.Fatalf("workers=%d: err = %v, want boom 7", workers, err)
		}
	}
	if got, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("x") }); err != nil || len(got) != 0 {
		t.Fatalf("empty Map returned %v, %v", got, err)
	}
}
