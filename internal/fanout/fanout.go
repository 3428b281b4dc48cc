// Package fanout runs work on goroutines of their own without letting a
// worker's panic kill the process: the analysis pipeline's parse workers
// and stages, and the simulator's prefix shards, all fan out through
// GoAll, so a serving daemon's reload attempt recovers their panics as
// its own.
package fanout

import "sync"

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
