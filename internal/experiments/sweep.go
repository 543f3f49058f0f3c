package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"extsched/internal/workload"
)

// DefaultWorkers is the worker-pool size Sweep uses: 0 means
// runtime.GOMAXPROCS(0), 1 forces the sequential path (useful for
// debugging and for determinism cross-checks). Set it before starting
// a sweep; it is read once per Sweep call.
var DefaultWorkers = 0

// Sweep evaluates fn(0..n-1) on a worker pool and returns the results
// in input order. It is the parallel fan-out primitive under every
// figure driver: each sweep point (one closed- or open-system run)
// owns its private engine, DB, and RNG streams, so points are
// embarrassingly parallel and the merged output is bit-identical to a
// sequential loop — only wall-clock time changes.
//
// On error, the error of the lowest-indexed failing point is returned
// (deterministic regardless of scheduling); remaining points may be
// skipped.
func Sweep[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return sweep(context.Background(), DefaultWorkers, n, fn)
}

// SweepContext is Sweep with cancellation: once ctx is done, workers
// stop claiming new points and the call returns ctx.Err() (results of
// already-finished points are discarded). A long figure sweep driven
// by cmd/benchrunner dies at the first SIGINT this way instead of
// grinding through hundreds of remaining simulation points. fn itself
// is not interrupted mid-point; cancellation is checked between
// points, so latency is bounded by one simulation run.
func SweepContext[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	return sweep(ctx, DefaultWorkers, n, fn)
}

// EffectiveWorkers resolves DefaultWorkers to the pool size a Sweep
// call would actually use (before clamping to the point count).
func EffectiveWorkers() int {
	if DefaultWorkers > 0 {
		return DefaultWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// SweepWorkers is Sweep with an explicit pool size (0 = GOMAXPROCS).
func SweepWorkers[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return sweep(context.Background(), workers, n, fn)
}

// sweep is the shared worker-pool implementation.
func sweep[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	panics := make([]*workerPanic, n)
	var next atomic.Int64
	// minFail is the lowest failing index seen so far (n = none). A
	// worker skips only points above it: every point below a recorded
	// failure still runs, so the lowest-indexed outcome is always the
	// one reported, regardless of scheduling.
	var minFail atomic.Int64
	minFail.Store(int64(n))
	fail := func(i int) {
		for {
			cur := minFail.Load()
			if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	// runPoint isolates fn so a model-bug panic (e.g. sim's
	// scheduling-in-the-past panic) is captured with its worker stack
	// and re-raised on the calling goroutine instead of killing the
	// process from a pool goroutine. Unlike the workers==1 path, the
	// re-raised value is a formatted string wrapping the original
	// panic with its point index and worker stack — panics here are
	// fatal model bugs, so diagnostic context beats value parity.
	runPoint := func(i int) (result T, err error, pan *workerPanic) {
		defer func() {
			if p := recover(); p != nil {
				pan = &workerPanic{value: p, stack: debug.Stack()}
			}
		}()
		result, err = fn(i)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > minFail.Load() {
					// A strictly lower point already failed; this
					// point's result cannot matter, and all further
					// claims are higher still.
					return
				}
				r, err, pan := runPoint(i)
				switch {
				case pan != nil:
					panics[i] = pan
					fail(i)
				case err != nil:
					errs[i] = err
					fail(i)
				default:
					results[i] = r
				}
			}
		}()
	}
	wg.Wait()
	// Report the lowest-indexed outcome, mirroring the sequential loop:
	// it would have stopped at the first bad point, panic or error, so
	// a panic past a failed point is not raised. Panics outrank
	// cancellation (they are model bugs, not shutdown).
	for i := 0; i < n && errs[i] == nil; i++ {
		if panics[i] != nil {
			panic(fmt.Sprintf("experiments: sweep point %d panicked: %v\nworker stack:\n%s",
				i, panics[i].value, panics[i].stack))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// workerPanic carries a recovered panic from a pool goroutine to the
// Sweep caller.
type workerPanic struct {
	value any
	stack []byte
}

// sweepPoint names one (setup, MPL) cell of a throughput figure.
type sweepPoint struct {
	setupID int
	mpl     int
}

// throughputGrid measures every (setup, MPL) pair of a figure in one
// flat parallel sweep and folds the results into one Series per setup,
// in the order of ids. Flattening (instead of sweeping per setup)
// keeps the pool busy across the whole grid.
func throughputGrid(ids []int, mpls []int, opts RunOpts) ([]Series, error) {
	points := make([]sweepPoint, 0, len(ids)*len(mpls))
	for _, id := range ids {
		for _, m := range mpls {
			points = append(points, sweepPoint{setupID: id, mpl: m})
		}
	}
	tputs, err := SweepContext(opts.ctx(), len(points), func(i int) (float64, error) {
		p := points[i]
		setup, err := workload.SetupByID(p.setupID)
		if err != nil {
			return 0, err
		}
		r, err := RunClosed(setup, p.mpl, "", workload.DBOptions{}, opts)
		if err != nil {
			return 0, fmt.Errorf("setup %d MPL %d: %w", p.setupID, p.mpl, err)
		}
		return r.Throughput, nil
	})
	if err != nil {
		return nil, err
	}
	series := make([]Series, len(ids))
	for si, id := range ids {
		setup, err := workload.SetupByID(id)
		if err != nil {
			return nil, err
		}
		s := Series{Name: setup.String()}
		for mi, m := range mpls {
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, tputs[si*len(mpls)+mi])
		}
		series[si] = s
	}
	return series, nil
}
