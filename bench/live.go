package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"extsched/gate"
)

const (
	liveSetups = 201  // set-ups per run; setup_s is their median
	spanEvery  = 1000 // a traced live run records spans for 1 request in this many
)

var okHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })

func (lw *liveWorkload) run(o options, r *report) error {
	// Set-up is what a service pays before its first response:
	// gate.New, Middleware and the first request through them.
	// The first pass only faults in the heap the set-ups allocate from:
	// fresh pages would otherwise land in some set-ups and not others,
	// and split processes into a fast and a slow mode.
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	setups := make([]float64, liveSetups)
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		for i := range setups {
			t0 := time.Now()
			g, err := gate.New(lw.gateConfig())
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			gate.Middleware(g, okHandler).ServeHTTP(rec, req)
			setups[i] = time.Since(t0).Seconds()
			r.check(rec.Code == http.StatusOK, "set-up request answered %d", rec.Code)
		}
	}
	r.hostTime("setup_s", median(setups), "s")

	// The load runs in stretches of at most a second, each on a fresh
	// gate and after a calibration, so the host's speed is sampled all
	// through the run. A traced run pairs traced and untraced stretches
	// in the order untraced, traced, traced, untraced, and so on.
	stretches := int(math.Ceil(o.seconds))
	if o.trace {
		stretches = max(2, stretches+stretches%2)
	}
	var plain, traced []*liveResult
	for i := 0; i < stretches; i++ {
		r.calibrate()
		var spans *spanLog
		if o.trace && (i%4 == 1 || i%4 == 2) {
			spans = o.spans
		}
		res, err := lw.load(o.seconds/float64(stretches), spans)
		if err != nil {
			return err
		}
		res.check(r)
		if spans != nil {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	r.calibrate()
	all := mergeLive(plain)
	n := float64(all.requests)
	r.attempted = all.requests
	r.failed = all.bad
	for _, t := range traced {
		r.attempted += t.requests
		r.failed += t.bad
	}
	r.hostTime("host_us_per_txn", all.wall.Seconds()*1e6/n, "us")
	r.hostTime("cpu_us_per_txn", all.cpu.Seconds()*1e6/n, "us")
	r.set("allocs_per_txn", float64(all.mallocs)/n, "count")
	r.set("alloc_bytes_per_txn", float64(all.bytes)/n, "B")
	r.set("mem_mb", all.memMB, "MB")
	r.hostRate("tput_per_s", n/all.wall.Seconds(), "1/s")
	r.hostTime("rt_mean_s", all.hist.mean()/1e9, "s")
	r.hostTime("rt_p50_s", all.hist.quantile(0.50)/1e9, "s")
	r.hostTime("rt_p99_s", all.hist.quantile(0.99)/1e9, "s")
	r.set("goodput_frac", (n-float64(all.bad))/n, "frac")
	r.note("samples %d requests timed, %d beyond rt_p99_s", all.hist.n, all.hist.n/100)
	if !o.trace {
		return nil
	}
	// Each traced stretch is compared with its untraced neighbour.
	ratios := make([]float64, min(len(plain), len(traced)))
	for i := range ratios {
		t, p := traced[i], plain[i]
		ratios[i] = (t.wall.Seconds() / float64(t.requests)) / (p.wall.Seconds() / float64(p.requests))
	}
	r.set("trace.overhead_frac", median(ratios)-1, "frac")
	m := modelSpec{
		live:        true,
		setupID:     1,
		seed:        o.seed,
		mpl:         lw.limit,
		policy:      string(gate.FIFO),
		concurrency: float64(min(lw.limit, lw.clients)),
		inside:      all.stats.MeanInside,
		clients:     lw.clients,
	}
	if all.stats.MeanResponse > 0 {
		m.extWaitFrac = all.stats.MeanWait / all.stats.MeanResponse
	}
	return drillAll(m, o, all.hist.mean()/1e3, r)
}

// liveResult is one stretch of live load and its end state.
type liveResult struct {
	cost
	memMB            float64
	requests, bad    uint64
	hist             *histogram
	stats            gate.Stats
	inflight, queued int
	leaked           int // goroutines still running after the clients returned
}

func (x *liveResult) check(r *report) {
	r.check(x.bad == 0, "%d of %d responses were not 200", x.bad, x.requests)
	r.check(x.stats.Completed == x.requests, "gate counted %d completions for %d requests", x.stats.Completed, x.requests)
	r.check(x.inflight == 0 && x.queued == 0, "gate holds %d in flight and %d queued after the load stopped", x.inflight, x.queued)
	r.check(x.leaked == 0, "%d goroutines outlived the load", x.leaked)
}

func mergeLive(rs []*liveResult) *liveResult {
	out := &liveResult{hist: &histogram{}}
	for _, x := range rs {
		out.wall += x.wall
		out.cpu += x.cpu
		out.mallocs += x.mallocs
		out.bytes += x.bytes
		out.memMB += x.memMB / float64(len(rs))
		out.requests += x.requests
		out.bad += x.bad
		out.hist.merge(x.hist)
		out.stats.Completed += x.stats.Completed
		out.stats.MeanInside += x.stats.MeanInside / float64(len(rs))
		out.stats.MeanWait += x.stats.MeanWait / float64(len(rs))
		out.stats.MeanResponse += x.stats.MeanResponse / float64(len(rs))
	}
	return out
}

// load runs the closed loop for seconds on a fresh gate. With spans,
// one request in spanEvery records a req span and a handler span.
func (lw *liveWorkload) load(seconds float64, spans *spanLog) (*liveResult, error) {
	g, err := gate.New(lw.gateConfig())
	if err != nil {
		return nil, err
	}
	base := runtime.NumGoroutine()
	clients := make([]*liveClient, lw.clients)
	for i := range clients {
		clients[i] = newLiveClient(g, i, spans)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	mem := startMemSampler()
	c, _ := measure(func() error {
		wg.Add(len(clients))
		for _, cl := range clients {
			go func() {
				defer wg.Done()
				cl.loop(&stop)
			}()
		}
		time.Sleep(time.Duration(seconds * float64(time.Second)))
		stop.Store(true)
		wg.Wait()
		return nil
	})
	res := &liveResult{cost: c, memMB: mem.finish(), hist: &histogram{}, stats: g.Stats(), inflight: g.Inflight(), queued: g.Queued()}
	for _, cl := range clients {
		res.requests += cl.n
		res.bad += cl.bad
		res.hist.merge(&cl.hist)
	}
	if res.requests == 0 {
		return nil, fmt.Errorf("no request completed in %v s", seconds)
	}
	// The clients have returned; give their goroutines a moment to exit.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	res.leaked = max(runtime.NumGoroutine()-base, 0)
	return res, nil
}

// liveClient sends one request at a time and times each one. Each
// client has its own Middleware over the shared gate, so the traced
// handler can find the client's open span without a lookup.
type liveClient struct {
	id      uint64
	h       http.Handler
	req     *http.Request
	hist    histogram
	n, bad  uint64
	spans   *spanLog
	sampled bool // the request in flight records spans
	reqSpan int
}

func newLiveClient(g *gate.Gate, id int, spans *spanLog) *liveClient {
	c := &liveClient{id: uint64(id), req: httptest.NewRequest(http.MethodGet, "/", nil), spans: spans}
	if spans != nil {
		c.h = gate.Middleware(g, http.HandlerFunc(c.tracedHandler))
	} else {
		c.h = gate.Middleware(g, okHandler)
	}
	return c
}

func (c *liveClient) reqID() uint64 { return c.id<<40 | c.n }

func (c *liveClient) tracedHandler(w http.ResponseWriter, _ *http.Request) {
	if !c.sampled {
		w.WriteHeader(http.StatusOK)
		return
	}
	i := c.spans.begin("handler", c.reqSpan, c.reqID())
	w.WriteHeader(http.StatusOK)
	c.spans.end(i)
}

func (c *liveClient) loop(stop *atomic.Bool) {
	for !stop.Load() {
		rec := httptest.NewRecorder()
		c.sampled = c.spans != nil && c.n%spanEvery == 0
		if c.sampled {
			c.reqSpan = c.spans.begin("req", -1, c.reqID())
		}
		t0 := time.Now()
		c.h.ServeHTTP(rec, c.req)
		c.hist.add(int64(time.Since(t0)))
		if c.sampled {
			c.spans.end(c.reqSpan)
		}
		if rec.Code != http.StatusOK {
			c.bad++
		}
		c.n++
	}
}
