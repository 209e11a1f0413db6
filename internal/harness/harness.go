// Package harness runs independent experiment points in parallel while
// preserving deterministic output.
//
// Every experiment sweep in this repository is a list of hermetic points: a
// (machine, core count, protocol, workload) combination that builds its own
// sim.Engine with a fixed seed, runs to completion, and reduces to a few
// numbers. Because each point's engine is seed-deterministic and shares no
// mutable state with any other point (machine topologies are immutable after
// construction), points may execute on any OS thread in any order — the
// gem5-style hermeticity argument for parallel experiment fan-out. The
// harness exploits that: points are fanned out across a bounded worker pool,
// and results are written into an index-ordered slice, so rendered tables
// and figures are byte-identical to a serial run.
//
// Parallelism defaults to GOMAXPROCS and can be overridden globally
// (mkbench -parallel N) or forced to 1 for fully serial execution.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the worker-pool width; <= 1 means run serially.
var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism sets the number of experiment points run concurrently.
// Values below 1 are clamped to 1 (serial). It affects subsequent Map calls
// globally; it is not intended to be raced with running sweeps.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the current worker-pool width.
func Parallelism() int { return int(parallelism.Load()) }

// Map runs fn(i) for every i in [0, n) and returns the results in index
// order. With parallelism 1 (or n == 1) everything runs on the calling
// goroutine; otherwise points are distributed over a worker pool. fn must be
// hermetic: it may read shared immutable data (machine topologies) but must
// not touch state shared with other points. A panic in any point is
// re-panicked on the calling goroutine after all workers have drained.
func Map[T any](n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value // first panic observed, re-raised by the caller
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, fmt.Sprintf("harness: point %d panicked: %v", i, r))
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
	return out
}

// Map2 runs fn over the cross product [0, rows) × [0, cols), returning
// results indexed [row][col]. All rows*cols points share one worker pool, so
// load balances across the full grid rather than row by row.
func Map2[T any](rows, cols int, fn func(r, c int) T) [][]T {
	flat := Map(rows*cols, func(i int) T { return fn(i/cols, i%cols) })
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
