package gate

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
)

// Middleware wraps next so every request passes through the gate: at
// most Limit requests run concurrently, the rest queue per the gate's
// policy. Requests the gate rejects — admission control (ErrQueueFull)
// or an expired class admission deadline (ErrDeadline) — get 503
// Service Unavailable with a Retry-After header; requests whose
// context dies while queued are abandoned without a response (the
// client is gone). Responses with 5xx status are counted in
// Stats.Errors.
//
// An admitted request costs no allocation: the writer handed to next,
// which records the response status, lives in the request's pooled
// ticket slot and is cleared when the request releases it. This rests
// on net/http's contract that a ResponseWriter may not be used after
// ServeHTTP returns (net/http recycles the buffers under its own
// writers on the same terms): a handler that keeps its writer past
// that point may reach a later request's writer through it, or panic.
func Middleware(g *Gate, next http.Handler) http.Handler {
	return MiddlewareClassify(g, nil, next)
}

// MiddlewareClassify is Middleware with per-request queue attributes:
// classify maps each request to its priority class and size hint (for
// the priority, SJF and WFQ policies). A nil classify treats every
// request as ClassLow with unknown size.
func MiddlewareClassify(g *Gate, classify func(*http.Request) Request, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if classify != nil {
			req = classify(r)
		}
		tk, err := g.AcquireRequest(r.Context(), req)
		if err != nil {
			switch {
			case err == ErrQueueFull || err == ErrDeadline:
				w.Header().Set("Retry-After", "1")
				http.Error(w, "server overloaded", http.StatusServiceUnavailable)
			case r.Context().Err() == nil:
				// classify returned a class outside the gate's range.
				http.Error(w, "request class out of range", http.StatusInternalServerError)
			}
			// Context errors: the client canceled or timed out while
			// queued; any response would go nowhere.
			return
		}
		sw := &tk.s.sw
		sw.ResponseWriter = w
		defer func() {
			if p := recover(); p != nil {
				tk.Release(Result{Err: fmt.Errorf("gate: handler panicked: %v", p)})
				panic(p)
			}
			var res Result
			if sw.status >= 500 {
				res.Err = fmt.Errorf("gate: handler returned status %d", sw.status)
			}
			tk.Release(res)
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter records the response status for error accounting. It
// forwards the optional ResponseWriter interfaces (Flusher, Hijacker,
// Unwrap for http.ResponseController) so streaming and websocket
// handlers keep working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := w.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, fmt.Errorf("gate: underlying ResponseWriter does not implement http.Hijacker")
}
