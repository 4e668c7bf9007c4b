package main

// Load generation: an open loop of seeded Poisson arrivals served by a
// fixed pool of connections, and a closed loop of callers that each wait
// for their reply. Open-loop requests are timed from when they were due,
// so a stall delays, and is charged to, every request due behind it.

import (
	"context"
	"sync"
	"time"
)

// sample is one open-loop request's timing.
type sample struct {
	// lag is how late the generator dispatched the request.
	lag time.Duration
	// wait is the time the dispatched request queued for a connection.
	wait time.Duration
	// latency runs from the due time until the reply was read.
	latency time.Duration
}

// openLoop dispatches request i at start+due[i] and runs it on one of
// conns workers. exec, given the request's due time, must be safe for
// concurrent use. The returned samples are indexed like due.
func openLoop(ctx context.Context, due []time.Duration, conns int, exec func(ctx context.Context, i int, due time.Time)) []sample {
	out := make([]sample, len(due))
	type job struct {
		i          int
		dispatched time.Time
	}
	// Buffered for every request, so the dispatcher never blocks on
	// busy workers and its lag measures only its own lateness.
	queue := make(chan job, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				picked := time.Now()
				at := start.Add(due[j.i])
				exec(ctx, j.i, at)
				s := &out[j.i]
				s.wait = picked.Sub(j.dispatched)
				s.latency = time.Since(at)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		now := time.Now()
		out[i].lag = now.Sub(start.Add(d))
		queue <- job{i: i, dispatched: now}
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop runs conns callers back to back for span: each sends its
// next request only after the previous reply. next picks the request a
// caller sends. It returns the wall time the callers took.
func closedLoop(ctx context.Context, conns int, span time.Duration, next func(worker, k int) int, exec func(ctx context.Context, i int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(span)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				exec(ctx, next(w, k))
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
