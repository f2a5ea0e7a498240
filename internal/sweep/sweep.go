// Package sweep is a small parallel parameter-sweep harness for the
// experiment grids: it fans a set of independent simulation jobs out over
// a bounded worker pool and returns their results in submission order, so
// experiment tables stay deterministic while wall-clock time drops by the
// core count. Every simulator object is confined to a single worker
// goroutine; only results cross the channel.
package sweep

import (
	"context"
	"runtime"
	"sync"
)

// Run executes jobs(i) for i in [0, n) on min(workers, n) goroutines and
// returns the results indexed by i. A non-positive workers count uses
// GOMAXPROCS. The job function must be safe to call concurrently for
// different i (each call builds its own machine).
func Run[T any](n, workers int, job func(i int) T) []T {
	results, _ := RunContext(context.Background(), n, workers,
		func(_ context.Context, i int) T { return job(i) })
	return results
}

// RunContext is Run with cancellation: once ctx is cancelled no further
// jobs start, and the call returns the context's error together with the
// results of the jobs that did complete (unstarted slots hold T's zero
// value). The context is also handed to each job, so long-running jobs
// can cut their own run short (e.g. with Machine.RunContext) — in-flight
// jobs are always waited for, never abandoned, keeping every simulator
// object confined to its worker goroutine.
func RunContext[T any](ctx context.Context, n, workers int, job func(ctx context.Context, i int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = job(ctx, i)
			}
		}()
	}
submit:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break submit
		}
	}
	close(next)
	wg.Wait()
	return results, ctx.Err()
}

// Run2 is Run for jobs with two outputs — typically a scalar result plus
// a per-run time series (e.g. a telemetry sample collection). Both slices
// are indexed by i in submission order.
func Run2[T, U any](n, workers int, job func(i int) (T, U)) ([]T, []U) {
	if n <= 0 {
		return nil, nil
	}
	type pair struct {
		a T
		b U
	}
	flat := Run(n, workers, func(i int) pair {
		a, b := job(i)
		return pair{a, b}
	})
	as := make([]T, n)
	bs := make([]U, n)
	for i, p := range flat {
		as[i], bs[i] = p.a, p.b
	}
	return as, bs
}

// Grid runs a two-dimensional sweep — rows x cols independent jobs — and
// returns results[row][col], again in deterministic order.
func Grid[T any](rows, cols, workers int, job func(row, col int) T) [][]T {
	flat := Run(rows*cols, workers, func(i int) T {
		return job(i/cols, i%cols)
	})
	out := make([][]T, rows)
	for r := 0; r < rows; r++ {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
