package gate

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMiddlewareGatesRequests(t *testing.T) {
	g, err := New(Config{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	var inflight, peak atomic.Int64
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inflight.Add(-1)
		io.WriteString(w, "ok")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	var wg sync.WaitGroup
	var okCount atomic.Int64
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				okCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("handler concurrency %d exceeded gate limit 2", p)
	}
	if okCount.Load() != 12 {
		t.Errorf("ok responses = %d, want 12 (no admission control configured)", okCount.Load())
	}
}

func TestMiddlewareShedsWith503(t *testing.T) {
	g, err := New(Config{Limit: 1, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		io.WriteString(w, "ok")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Request 1 occupies the slot; request 2 fills the queue.
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		// Wait until the request is admitted or queued before the next.
		for {
			s := g.Stats()
			if s.Inflight+s.Queued > i {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Request 3 must be shed.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overload status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}
	close(release)
	if a, b := <-done, <-done; a != http.StatusOK || b != http.StatusOK {
		t.Errorf("admitted requests got %d, %d; want 200, 200", a, b)
	}
	if got := g.Stats().Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestMiddlewareCountsServerErrors(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := g.Stats().Errors; got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if got := g.Stats().Inflight; got != 0 {
		t.Errorf("slot leaked on 5xx: inflight = %d", got)
	}
}

func TestMiddlewareClassifyRoutesClasses(t *testing.T) {
	g, err := New(Config{Limit: 1, Policy: Priority})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(r *http.Request) Request {
		if r.URL.Path == "/vip" {
			return Request{Class: ClassHigh}
		}
		return Request{}
	}
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	h := MiddlewareClassify(g, classify, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		default:
			<-release
		}
		mu.Lock()
		order = append(order, r.URL.Path)
		mu.Unlock()
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	var wg sync.WaitGroup
	get := func(path string) {
		defer wg.Done()
		resp, err := http.Get(srv.URL + path)
		if err == nil {
			resp.Body.Close()
		}
	}
	wg.Add(1)
	go get("/first") // occupies the slot
	for g.Stats().Inflight != 1 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go get("/low")
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go get("/vip")
	for g.Stats().Queued != 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != "/vip" {
		t.Errorf("service order = %v, want /vip served before /low", order)
	}
}

// TestMiddlewareRejectsOutOfRangeClass answers 500 without running
// the handler when classify returns a class the gate rejects.
func TestMiddlewareRejectsOutOfRangeClass(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(*http.Request) Request { return Request{Class: 1 << 16} }
	ran := false
	h := MiddlewareClassify(g, classify, http.HandlerFunc(func(http.ResponseWriter, *http.Request) { ran = true }))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError || ran {
		t.Errorf("status %d, handler ran %v; want 500 and no handler", rec.Code, ran)
	}
	if g.Inflight() != 0 {
		t.Errorf("inflight %d after a rejected request", g.Inflight())
	}
}

func TestMiddlewareForwardsFlusher(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	var flushed atomic.Bool
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("ResponseWriter behind the middleware lost http.Flusher")
			return
		}
		io.WriteString(w, "chunk")
		f.Flush()
		flushed.Store(true)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The body ends only once the handler has returned, so reading it
	// to EOF orders the check after the handler's store.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !flushed.Load() {
		t.Error("streaming handler could not flush")
	}
}

// TestMiddlewareShedsDeadlineWith503: a request the gate sheds at its
// class's admission deadline is answered 503 with Retry-After, not an
// empty 200, and counts in Stats.Shed.
func TestMiddlewareShedsDeadlineWith503(t *testing.T) {
	g, err := New(Config{Limit: 1, AdmitDeadline: map[Class]float64{ClassLow: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	holder, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release(Result{})
	srv := httptest.NewServer(Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("deadline-shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}
	if got := g.Stats().Shed; got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
}

// discardWriter is a reusable ResponseWriter that keeps nothing, so a
// middleware round trip through it measures the middleware alone.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

var okHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
})

// TestMiddlewareZeroAlloc: an admitted request costs the middleware no
// allocation — the status writer rides in the pooled ticket slot.
func TestMiddlewareZeroAlloc(t *testing.T) {
	g, err := New(Config{Limit: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := Middleware(g, okHandler)
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, r) }); n != 0 {
		t.Errorf("Middleware round trip allocates %v/op, want 0", n)
	}
	if s := g.Stats(); s.Completed == 0 || s.Errors != 0 || s.Inflight != 0 {
		t.Errorf("completed %d errors %d inflight %d, want >0, 0, 0", s.Completed, s.Errors, s.Inflight)
	}
}

// TestMiddlewareStaleWriterMissesLaterRequest: a handler that keeps its
// writer past ServeHTTP breaks net/http's contract, but once the next
// request on the same pooled slot has completed, a write through the
// kept writer cannot reach that request's response.
func TestMiddlewareStaleWriterMissesLaterRequest(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	var kept, last http.ResponseWriter
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kept == nil {
			kept = w
		}
		last = w
		io.WriteString(w, r.URL.Path)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/first", nil))
	// The race detector makes sync.Pool drop slots at random; retry
	// until a later request lands on the kept writer's slot.
	var second *httptest.ResponseRecorder
	last = nil
	for i := 0; i < 20 && last != kept; i++ {
		second = httptest.NewRecorder()
		h.ServeHTTP(second, httptest.NewRequest(http.MethodGet, "/second", nil))
	}
	if last != kept {
		t.Skip("the pool never handed the kept slot back; nothing to check")
	}
	func() {
		defer func() { recover() }()
		kept.Header().Set("X-Stale", "1")
		kept.WriteHeader(http.StatusTeapot)
		io.WriteString(kept, "stale")
	}()
	if got := second.Body.String(); got != "/second" {
		t.Errorf("second response body = %q, want %q", got, "/second")
	}
	if second.Code != http.StatusOK || second.Header().Get("X-Stale") != "" {
		t.Errorf("second response status %d, X-Stale %q: touched by a stale writer", second.Code, second.Header().Get("X-Stale"))
	}
}
