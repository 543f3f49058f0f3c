// Package disk simulates the storage subsystem: FCFS per-disk queues, a
// striped data array (the paper stripes the database evenly over 1–6
// IDE drives) and a dedicated log disk for commit-time WAL writes, the
// same layout as the paper's testbed (one drive reserved for the log).
package disk

import (
	"fmt"
	"math"

	"extsched/internal/dist"
	"extsched/internal/sim"
)

// request is the recycled per-I/O record behind a Request handle.
type request struct {
	service  float64
	onDone   func()
	gen      uint64 // bumped on recycling; invalidates stale handles
	canceled bool   // in service: the completion callback is suppressed
}

// Request is a value handle to a submitted I/O. Copy it freely. It
// goes stale once the I/O completes or is canceled and its record is
// recycled; Cancel on a stale handle or the zero Request is a no-op,
// so a handle kept past its I/O can never cancel the I/O that later
// reuses the record.
type Request struct {
	r   *request
	gen uint64
}

// Disk is a single FCFS device.
type Disk struct {
	eng  *sim.Engine
	name string
	// queue is a ring of waiting requests: n of them, oldest at head.
	queue   []*request
	head, n int
	cur     *request // in service; nil when idle
	// busyTime integrates seconds the device spent serving requests.
	busyTime  float64
	busySince float64
	served    uint64
	finish    func() // completion callback of the request in service, bound once
	free      []*request
}

// NewDisk returns an idle FCFS disk.
func NewDisk(eng *sim.Engine, name string) *Disk {
	d := &Disk{eng: eng, name: name}
	d.finish = d.complete
	return d
}

// Name returns the device name.
func (d *Disk) Name() string { return d.name }

// QueueLen returns the number of waiting requests (excluding the one in
// service).
func (d *Disk) QueueLen() int { return d.n }

// Served returns the number of completed requests.
func (d *Disk) Served() uint64 { return d.served }

// BusySeconds returns accumulated service time.
func (d *Disk) BusySeconds() float64 {
	if d.cur != nil {
		return d.busyTime + (d.eng.Now() - d.busySince)
	}
	return d.busyTime
}

// Submit enqueues a request with the given service time. onDone fires
// at completion.
func (d *Disk) Submit(service float64, onDone func()) Request {
	if service < 0 || math.IsNaN(service) || math.IsInf(service, 0) {
		panic(fmt.Sprintf("disk: invalid service time %v", service))
	}
	var r *request
	if k := len(d.free); k > 0 {
		r = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		r = &request{}
	}
	r.service, r.onDone = service, onDone
	h := Request{r: r, gen: r.gen}
	if d.n == len(d.queue) {
		d.grow()
	}
	d.queue[(d.head+d.n)%len(d.queue)] = r
	d.n++
	if d.cur == nil {
		d.startNext()
	}
	return h
}

// grow doubles the ring, unrolling it so the oldest request sits at
// index 0.
func (d *Disk) grow() {
	q := make([]*request, max(4, 2*len(d.queue)))
	for i := 0; i < d.n; i++ {
		q[i] = d.queue[(d.head+i)%len(d.queue)]
	}
	d.queue, d.head = q, 0
}

// Cancel drops a request that has not started service (transaction
// abort). A request already in service completes normally but its
// callback is suppressed. Canceling a finished request, a stale handle
// or the zero Request is a no-op.
func (d *Disk) Cancel(h Request) {
	r := h.r
	if r == nil || r.gen != h.gen {
		return
	}
	if r == d.cur {
		r.canceled = true
		return
	}
	for i := 0; i < d.n; i++ {
		if d.queue[(d.head+i)%len(d.queue)] != r {
			continue
		}
		// Close the gap, keeping FCFS order.
		for ; i < d.n-1; i++ {
			d.queue[(d.head+i)%len(d.queue)] = d.queue[(d.head+i+1)%len(d.queue)]
		}
		d.n--
		d.queue[(d.head+d.n)%len(d.queue)] = nil
		d.recycle(r)
		return
	}
}

// recycle invalidates outstanding handles to r and returns it to the
// free list.
func (d *Disk) recycle(r *request) {
	r.gen++
	r.onDone = nil
	r.canceled = false
	d.free = append(d.free, r)
}

// startNext puts the oldest waiting request into service, or leaves
// the device idle.
func (d *Disk) startNext() {
	if d.n == 0 {
		d.cur = nil
		return
	}
	r := d.queue[d.head]
	d.queue[d.head] = nil
	d.head = (d.head + 1) % len(d.queue)
	d.n--
	d.cur = r
	d.busySince = d.eng.Now()
	d.eng.After(r.service, d.finish)
}

// complete ends the service in progress.
func (d *Disk) complete() {
	r := d.cur
	d.busyTime += r.service
	d.served++
	// Start the next queued request BEFORE the completion callback:
	// onDone may synchronously submit a follow-up I/O to this very
	// disk, and it must queue behind the next request rather than
	// start a second concurrent service.
	d.startNext()
	onDone, canceled := r.onDone, r.canceled
	d.recycle(r)
	if !canceled {
		onDone()
	}
}

// Array is a striped set of data disks: each I/O goes to a uniformly
// random stripe, matching the paper's assumption that "the data is
// evenly striped over the disks".
type Array struct {
	disks   []*Disk
	service dist.Distribution
	rng     *sim.RNG
}

// NewArray builds n striped disks whose per-request service time is
// drawn from service.
func NewArray(eng *sim.Engine, n int, service dist.Distribution, rng *sim.RNG) *Array {
	if n < 1 {
		panic(fmt.Sprintf("disk: array needs >= 1 disk, got %d", n))
	}
	a := &Array{service: service, rng: rng}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, NewDisk(eng, fmt.Sprintf("data%d", i)))
	}
	return a
}

// Disks exposes the individual devices (for metrics).
func (a *Array) Disks() []*Disk { return a.disks }

// Size returns the number of disks.
func (a *Array) Size() int { return len(a.disks) }

// SubmitIO issues one I/O to a uniformly chosen stripe with a service
// time drawn from the array's distribution. It returns the request
// handle together with the disk it landed on (for cancellation).
func (a *Array) SubmitIO(onDone func()) (Request, *Disk) {
	d := a.disks[a.rng.IntN(len(a.disks))]
	return d.Submit(a.service.Sample(a.rng), onDone), d
}

// Log is the dedicated log disk. Sequential WAL appends are much
// cheaper than random data I/O, so it takes its own (smaller) service
// distribution. With GroupCommit enabled, commit records arriving
// while a flush is in progress are batched into the next flush — one
// device write durably commits the whole group, which is how real
// engines keep the log from becoming the bottleneck at high MPLs.
type Log struct {
	disk        *Disk
	service     dist.Distribution
	rng         *sim.RNG
	groupCommit bool
	flushing    bool
	// waiters collect the next group while group is being flushed; the
	// two buffers swap at each flush.
	waiters  []func()
	group    []func()
	flushed  func() // completion callback of a group flush, bound once
	flushes  uint64
	appends  uint64
	maxGroup int
}

// NewLog returns the log device (no group commit).
func NewLog(eng *sim.Engine, service dist.Distribution, rng *sim.RNG) *Log {
	l := &Log{disk: NewDisk(eng, "log"), service: service, rng: rng}
	l.flushed = l.groupDurable
	return l
}

// SetGroupCommit toggles commit-record batching.
func (l *Log) SetGroupCommit(on bool) { l.groupCommit = on }

// Disk exposes the underlying device.
func (l *Log) Disk() *Disk { return l.disk }

// Flushes returns the number of device writes issued.
func (l *Log) Flushes() uint64 { return l.flushes }

// Appends returns the number of commit records appended.
func (l *Log) Appends() uint64 { return l.appends }

// MaxGroupSize returns the largest commit group flushed together.
func (l *Log) MaxGroupSize() int { return l.maxGroup }

// Append writes one commit record; onDone fires when it is durable.
func (l *Log) Append(onDone func()) {
	l.appends++
	if !l.groupCommit {
		l.flushes++
		if l.maxGroup < 1 {
			l.maxGroup = 1
		}
		l.disk.Submit(l.service.Sample(l.rng), onDone)
		return
	}
	l.waiters = append(l.waiters, onDone)
	if !l.flushing {
		l.flush()
	}
}

// flush writes the current group in a single device operation.
func (l *Log) flush() {
	clear(l.group)
	l.group, l.waiters = l.waiters, l.group[:0]
	if len(l.group) == 0 {
		l.flushing = false
		return
	}
	if len(l.group) > l.maxGroup {
		l.maxGroup = len(l.group)
	}
	l.flushing = true
	l.flushes++
	l.disk.Submit(l.service.Sample(l.rng), l.flushed)
}

// groupDurable completes every record of the flushed group. Records
// that arrived during this flush form the next group.
func (l *Log) groupDurable() {
	for _, cb := range l.group {
		cb()
	}
	l.flush()
}
