// Package fanout runs work on goroutines of their own without letting a
// worker's panic kill the process: the analysis pipeline's read and
// parse workers and stages, and the simulator's prefix shards, all fan
// out through GoAll, so a serving daemon's reload attempt recovers their
// panics as its own. Each is the one index-claiming worker pool: the
// read and parse stages, the corpus workspace and experiment runs, the
// anonymizer's file I/O and netgen's network writes all share it.
package fanout

import (
	"sync"
	"sync/atomic"
)

// GoAll runs every f on a goroutine of its own and waits for all of
// them. A panic in one is re-raised on the caller's goroutine once all
// have returned, so the caller's recover — a serving daemon's reload
// attempt — sees a worker's panic as its own instead of the process
// dying.
func GoAll(fs ...func()) {
	var wg sync.WaitGroup
	panics := make(chan any, len(fs))
	for _, f := range fs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			f()
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// Each hands the indexes 0..n-1 to a pool of min(k, n) workers, at
// least one, and waits for them. Every worker runs worker(next); each
// call of next returns the lowest index no worker has taken yet, and
// false once all n are taken, so a worker that stops calling it leaves
// the rest to the others. Because indexes are taken in increasing
// order, every index below one a worker holds has been taken too. With
// more than one worker they run under GoAll, which re-raises a worker's
// panic on the caller's goroutine; one worker runs on the caller's
// goroutine. With n <= 0 no worker runs.
func Each(n, k int, worker func(next func() (int, bool))) {
	if n <= 0 {
		return
	}
	var taken atomic.Int64
	next := func() (int, bool) {
		i := int(taken.Add(1)) - 1
		return i, i < n
	}
	if k > n {
		k = n
	}
	if k <= 1 {
		worker(next)
		return
	}
	pool := make([]func(), k)
	for w := range pool {
		pool[w] = func() { worker(next) }
	}
	GoAll(pool...)
}
