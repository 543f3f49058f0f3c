package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cost is what one measured stretch of work consumed.
type cost struct {
	wall    time.Duration
	cpu     time.Duration // user + system time of the whole process
	mallocs uint64
	bytes   uint64
}

func (c cost) sub(d cost) cost {
	return cost{c.wall - d.wall, c.cpu - d.cpu, c.mallocs - min(c.mallocs, d.mallocs), c.bytes - min(c.bytes, d.bytes)}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler samples, every 20 ms until finish, the memory the Go
// runtime holds from the OS: everything it mapped minus the heap it
// released. Its median is steadier than the peak resident set, which
// is the largest of many GC overshoots and varies by half between runs
// of an allocation-heavy workload.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	m := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		metrics.Read(m)
		s.samples = append(s.samples, float64(m[0].Value.Uint64()-m[1].Value.Uint64())/(1<<20))
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		read()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its median in MiB.
func (s *memSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

// measure runs fn and returns what it cost. The two ReadMemStats calls
// stop the world briefly; callers measure stretches long enough for
// that to vanish.
func measure(fn func() error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return cost{wall, c1 - c0, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}, err
}

// referenceKernelTime is referenceKernel's median time on the machine
// the baseline was recorded on (see README.md): the reference speed
// host-clock metrics are reported at.
const referenceKernelTime = 31800 * time.Microsecond

type refEvent struct {
	at      float64
	id      int
	payload []byte
}

var refSink int

// referenceKernel times a fixed workload shaped like the simulator's
// own host work: an event loop over a binary heap of 1024 pending
// events, with a map index and a small allocation per event. Its code
// is frozen and calls nothing in the repository, so its time tracks
// only how fast the host is.
func referenceKernel() time.Duration {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	var heap []*refEvent
	push := func(e *refEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() *refEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			l, s := 2*i+1, i
			if l < n && heap[l].at < heap[s].at {
				s = l
			}
			if l+1 < n && heap[l+1].at < heap[s].at {
				s = l + 1
			}
			if s == i {
				break
			}
			heap[s], heap[i] = heap[i], heap[s]
			i = s
		}
		return top
	}
	index := make(map[int]*refEvent)
	for i := 0; i < 1024; i++ {
		e := &refEvent{at: rnd(), id: i, payload: make([]byte, 48)}
		push(e)
		index[e.id] = e
	}
	for i := 0; i < 150000; i++ {
		e := pop()
		delete(index, e.id)
		n := &refEvent{at: e.at + rnd(), id: 1024 + i, payload: make([]byte, 48)}
		n.payload[0] = e.payload[0] + 1
		push(n)
		index[n.id] = n
	}
	refSink = len(index)
	return time.Since(t0)
}

// medianCost is the element-wise median of costs.
func medianCost(cs []cost) cost {
	pick := func(f func(cost) float64) float64 {
		v := make([]float64, len(cs))
		for i, c := range cs {
			v[i] = f(c)
		}
		return median(v)
	}
	return cost{
		wall:    time.Duration(pick(func(c cost) float64 { return float64(c.wall) })),
		cpu:     time.Duration(pick(func(c cost) float64 { return float64(c.cpu) })),
		mallocs: uint64(pick(func(c cost) float64 { return float64(c.mallocs) })),
		bytes:   uint64(pick(func(c cost) float64 { return float64(c.bytes) })),
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histogram is a log-linear latency histogram over nanoseconds: exact
// below 128 ns, then 128 buckets per power of two (under 0.8% relative
// error). It never allocates after construction, so every request of a
// live workload can be recorded.
type histogram struct {
	counts [58 * 128]uint64
	n      uint64
	sum    float64
}

func bucketOf(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(v) - 8
	return (e+1)*128 + int(v>>e) - 128
}

// bucketRange is the lowest value of bucket i and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := i/128 - 1
	return float64(uint64(i%128+128) << e), float64(uint64(1) << e)
}

func (h *histogram) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += float64(ns)
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *histogram) mean() float64 { return h.sum / float64(h.n) }

// quantile returns the q-quantile (0 < q < 1) in nanoseconds,
// interpolated linearly by rank inside its bucket.
func (h *histogram) quantile(q float64) float64 {
	rank := q * float64(h.n)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketRange(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.NaN()
}

// span is one traced interval. Times are nanoseconds since the start
// of the run; Parent is the index of the enclosing span or -1; Req
// ties the spans of one live request together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string, parent int, req uint64) int {
	start := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: start, End: -1, Parent: parent, Req: req})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	end := l.now()
	l.mu.Lock()
	l.spans[i].End = end
	l.mu.Unlock()
}

// timed runs fn inside a span of the given name (no-op log: just fn).
func (l *spanLog) timed(name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	i := l.begin(name, -1, 0)
	defer l.end(i)
	return fn()
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
