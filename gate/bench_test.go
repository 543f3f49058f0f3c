package gate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkGateAcquireRelease measures the uncontended serial fast
// path: an unlimited gate, so every Acquire admits on the lock-free
// word and Release never wakes a waiter. This is the pure overhead the
// gate adds to a guarded call — target 0 allocs/op (ticket slots come
// from the per-gate pool).
func BenchmarkGateAcquireRelease(b *testing.B) {
	g, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk, err := g.Acquire(ctx)
		if err != nil {
			b.Fatal(err)
		}
		tk.Release(Result{})
	}
}

// BenchmarkGateMiddleware measures one fast-path request through
// Middleware at limit 64 over a reused writer stub, so the number is
// the middleware's own overhead — target 0 allocs/op (the status
// writer lives in the pooled ticket slot).
func BenchmarkGateMiddleware(b *testing.B) {
	g, err := New(Config{Limit: 64})
	if err != nil {
		b.Fatal(err)
	}
	h := Middleware(g, okHandler)
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, r)
	}
}

// BenchmarkGateAcquireReleaseParallel is the same uncontended path
// under RunParallel — run with -cpu 2,4,8 to see how the lock-free
// admit word scales. With no queue the goroutines contend only on the
// CAS, so throughput should stay near-flat per core.
func BenchmarkGateAcquireReleaseParallel(b *testing.B) {
	g, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tk, err := g.Acquire(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			tk.Release(Result{})
		}
	})
}

// BenchmarkGatePoolAcquireReleaseParallel sends the same uncontended
// traffic through a Pool (round-robin over 4 unlimited members), so
// the routing lock plus the member fast path is what's measured.
func BenchmarkGatePoolAcquireReleaseParallel(b *testing.B) {
	p, err := NewPool(PoolConfig{Members: 4, Dispatch: "rr"})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tk, err := p.Acquire(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			tk.Release(Result{})
		}
	})
}

// BenchmarkGateAcquireReleaseContended runs more goroutines than
// slots, so most Acquires queue and every Release hands its slot to a
// waiter — the handoff (mutex + policy) path a saturated service
// lives on.
func BenchmarkGateAcquireReleaseContended(b *testing.B) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(4) // 4×GOMAXPROCS goroutines over 4 slots
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tk, err := g.Acquire(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			tk.Release(Result{})
		}
	})
}

// BenchmarkGateAcquireReleaseWFQ exercises the most expensive policy
// on the contended path.
func BenchmarkGateAcquireReleaseWFQ(b *testing.B) {
	g, err := New(Config{Limit: 4, Policy: WFQ})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		class := Class(0)
		for pb.Next() {
			class ^= 1
			tk, err := g.AcquireRequest(ctx, Request{Class: class, SizeHint: 0.001})
			if err != nil {
				b.Error(err)
				return
			}
			tk.Release(Result{})
		}
	})
}

// BenchmarkGateSetup measures what a service pays before its first
// response: New, Middleware and the first request through them — the
// set-up loop body of the live benchmark workloads (bench/live.go).
func BenchmarkGateSetup(b *testing.B) {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := New(Config{Limit: 64, Policy: FIFO})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		Middleware(g, okHandler).ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("set-up request answered %d", rec.Code)
		}
	}
}
