package fanout

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestGoAllReraisesWorkerPanic: the parse workers, parallel stages and
// simulator shards run on goroutines of their own, where no caller's
// recover reaches. A worker's panic must come back on the caller's
// goroutine, after every worker has returned, so a serving daemon's
// reload attempt can turn it into an error instead of dying.
func TestGoAllReraisesWorkerPanic(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", p)
		}
		if n := ran.Load(); n != 3 {
			t.Errorf("%d of 3 workers ran before the re-raise", n)
		}
	}()
	work := func() { ran.Add(1) }
	GoAll(work, func() { ran.Add(1); panic("boom") }, work)
	t.Fatal("GoAll returned normally after a worker panicked")
}

// TestEachTakesEveryIndexOnce: whatever the worker count, every index
// below n reaches exactly one worker, and no more than min(k, n) workers
// start (none for n = 0).
func TestEachTakesEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{0, 4}, {1, 4}, {5, 1}, {5, 0}, {100, 3}, {3, 8}} {
		t.Run(fmt.Sprintf("n%d_k%d", tc.n, tc.k), func(t *testing.T) {
			hits := make([]atomic.Int32, tc.n)
			var workers atomic.Int32
			Each(tc.n, tc.k, func(next func() (int, bool)) {
				workers.Add(1)
				for i, ok := next(); ok; i, ok = next() {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Errorf("index %d taken %d times, want once", i, h)
				}
			}
			want := min(max(tc.k, 1), tc.n)
			if got := int(workers.Load()); got != want {
				t.Errorf("%d workers ran, want %d", got, want)
			}
		})
	}
}

// TestEachReraisesWorkerPanic: Each's workers run under GoAll, so a
// reload attempt recovers a read or parse worker's panic as its own.
func TestEachReraisesWorkerPanic(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", p)
		}
	}()
	Each(8, 2, func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			if i == 5 {
				panic("boom")
			}
		}
	})
	t.Fatal("Each returned normally after a worker panicked")
}
