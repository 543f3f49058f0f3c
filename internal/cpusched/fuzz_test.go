package cpusched

import (
	"math"
	"testing"

	"extsched/internal/sim"
)

// fuzzWeights are the weights a schedule draws from: mostly unit
// weights, so the shared-rate path runs, with a light and a heavy
// weight that force water-filling (20 caps a job at one core).
var fuzzWeights = [...]float64{1, 1, 1, 0.5, 20}

// completion is one finished burst: its id and the instant it fired.
type completion struct {
	id int
	at float64
}

// pair runs one schedule on a CPU and on the reference scheduler, each
// on its own engine, and compares them after every step.
type pair struct {
	t           *testing.T
	eng, refEng *sim.Engine
	cpu         *CPU
	ref         *refCPU
	jobs        []Job
	refJobs     []refHandle
	log, refLog []completion
}

// maxJobs bounds the bursts one schedule submits on each side.
const maxJobs = 256

func newPair(t *testing.T, cores int) *pair {
	p := &pair{t: t, eng: sim.NewEngine(), refEng: sim.NewEngine()}
	p.cpu, p.ref = New(p.eng, cores), newRef(p.refEng, cores)
	return p
}

// followUp is the burst that burst id's completion submits from inside
// its callback, as a transaction's next operation does: every third
// burst has one.
func followUp(id int) (work, weight float64, ok bool) {
	return float64(1+id%7) / 64, fuzzWeights[id%len(fuzzWeights)], id%3 == 0 && id < maxJobs
}

// submit submits the same burst to both sides.
func (p *pair) submit(work, weight float64) {
	p.submitCPU(work, weight)
	p.submitRef(work, weight)
}

func (p *pair) submitCPU(work, weight float64) {
	id := len(p.jobs)
	p.jobs = append(p.jobs, p.cpu.Submit(work, weight, func() {
		p.log = append(p.log, completion{id, p.eng.Now()})
		if w, wt, ok := followUp(id); ok {
			p.submitCPU(w, wt)
		}
	}))
}

func (p *pair) submitRef(work, weight float64) {
	id := len(p.refJobs)
	p.refJobs = append(p.refJobs, p.ref.Submit(work, weight, func() {
		p.refLog = append(p.refLog, completion{id, p.refEng.Now()})
		if w, wt, ok := followUp(id); ok {
			p.submitRef(w, wt)
		}
	}))
}

// check requires both sides to agree bit for bit.
func (p *pair) check(step string) {
	p.t.Helper()
	if len(p.jobs) != len(p.refJobs) {
		p.t.Fatalf("%s: %d handles, reference %d", step, len(p.jobs), len(p.refJobs))
	}
	if len(p.log) != len(p.refLog) {
		p.t.Fatalf("%s: %d completions, reference %d", step, len(p.log), len(p.refLog))
	}
	for i := range p.log {
		if p.log[i] != p.refLog[i] {
			p.t.Fatalf("%s: completion %d is %+v, reference %+v", step, i, p.log[i], p.refLog[i])
		}
	}
	if got, want := p.eng.Now(), p.refEng.Now(); got != want {
		p.t.Fatalf("%s: clock %v, reference %v", step, got, want)
	}
	if got, want := p.cpu.Resident(), p.ref.Resident(); got != want {
		p.t.Fatalf("%s: %d resident, reference %d", step, got, want)
	}
	for i, h := range p.jobs {
		r := p.refJobs[i]
		if got, want := h.Remaining(), r.Remaining(); got != want {
			p.t.Fatalf("%s: job %d remaining %v, reference %v", step, i, got, want)
		}
		if got, want := h.Rate(), r.Rate(); got != want {
			p.t.Fatalf("%s: job %d rate %v, reference %v", step, i, got, want)
		}
	}
	if got, want := p.cpu.BusyCoreSeconds(), p.ref.BusyCoreSeconds(); got != want {
		p.t.Fatalf("%s: busy %v, reference %v", step, got, want)
	}
}

// runSchedule decodes ops into submits, twin submits, cancels,
// reweights, timed runs and single steps, applies each to both sides
// and checks them after each one, then drains both engines.
//
// An op is a kind byte b (kind b%6, weight fuzzWeights[b/6%5])
// followed by its arguments:
//
//	0 x_hi x_lo  submit work x/1000 s (0 when x%16 == 0)
//	1 x_hi x_lo  submit work nextafter(w, +Inf), then w = (x+1)/1000 s
//	2 i          cancel handle i (stale handles included)
//	3 i          set handle i's weight
//	4 d          run the engines for d/64 s
//	5            step the engines once
func runSchedule(t *testing.T, cores int, ops []byte) {
	p := newPair(t, cores)
	arg := func() (byte, bool) {
		if len(ops) == 0 {
			return 0, false
		}
		b := ops[0]
		ops = ops[1:]
		return b, true
	}
	for len(ops) > 0 {
		b, _ := arg()
		weight := fuzzWeights[b/6%5]
		switch b % 6 {
		case 0, 1:
			hi, ok1 := arg()
			lo, ok2 := arg()
			if !ok1 || !ok2 || len(p.jobs) >= maxJobs {
				return
			}
			x := int(hi)<<8 | int(lo)
			if b%6 == 0 {
				work := float64(x) / 1000
				if x%16 == 0 {
					work = 0
				}
				p.submit(work, weight)
				p.check("submit")
				continue
			}
			w := float64(x+1) / 1000
			p.submit(math.Nextafter(w, math.Inf(1)), weight)
			p.submit(w, weight)
			p.check("twin submit")
		case 2, 3:
			i, ok := arg()
			if !ok || len(p.jobs) == 0 {
				return
			}
			k := int(i) % len(p.jobs)
			if b%6 == 2 {
				p.cpu.Cancel(p.jobs[k])
				p.ref.Cancel(p.refJobs[k])
				p.check("cancel")
			} else {
				p.cpu.SetWeight(p.jobs[k], weight)
				p.ref.SetWeight(p.refJobs[k], weight)
				p.check("set weight")
			}
		case 4:
			d, ok := arg()
			if !ok {
				return
			}
			until := p.eng.Now() + float64(d)/64
			p.eng.Run(until)
			p.refEng.Run(until)
			p.check("run")
		case 5:
			p.eng.Step()
			p.refEng.Step()
			p.check("step")
		}
	}
	p.eng.RunAll()
	p.refEng.RunAll()
	p.check("drain")
}

// tiedWork returns the least w = (x+1)/1000 whose successor's quotient
// by rate rounds to w's own: two unit-weight jobs with these works
// finish at the same instant, and the earlier one in slice order must
// complete first.
func tiedWork(t testing.TB, rate float64) (w float64, x int) {
	for x = 0; x < 1<<16; x++ {
		w = float64(x+1) / 1000
		if math.Nextafter(w, math.Inf(1))/rate == w/rate {
			return w, x
		}
	}
	t.Fatalf("no tied work pair at rate %v", rate)
	return 0, 0
}

// FuzzCPUMatchesReference drives the CPU and the reference scheduler
// with the same random schedule on 1-4 cores and requires the same
// completion order and ==-equal completion times, Remaining, Rate and
// BusyCoreSeconds at every step.
func FuzzCPUMatchesReference(f *testing.F) {
	// Twin submits one ulp apart behind long jobs: at 3 jobs on 1
	// core, 5 on 2 and 4 on 3 the twins' quotients tie, which only the
	// division fallback orders as the reference does.
	for _, tc := range []struct{ cores, others int }{{1, 1}, {2, 3}, {3, 2}} {
		n := tc.others + 2
		if n <= tc.cores {
			n = tc.cores + 1
		}
		_, x := tiedWork(f, float64(tc.cores)/float64(n))
		ops := []byte{}
		for i := 0; i < tc.others; i++ {
			ops = append(ops, 0, 0xf0, byte(i+1)) // 60 s, weight 1
		}
		ops = append(ops, 1, byte(x>>8), byte(x), 5, 5, 4, 255, 5, 5)
		f.Add(uint8(tc.cores-1), ops)
	}
	// Equal works submitted at one instant: the earlier one completes
	// first.
	f.Add(uint8(0), []byte{0, 0xf0, 1, 0, 0, 17, 0, 0, 17, 5, 5, 5})
	// Unit weights only, with a reweight to 20 and back.
	f.Add(uint8(0), []byte{0, 1, 1, 0, 2, 2, 0, 0, 200, 4, 9, 27, 1, 4, 9, 3, 1, 4, 30, 5, 5})
	// Mixed weights on two cores, with cancels and zero-work jobs.
	f.Add(uint8(1), []byte{18, 3, 7, 24, 1, 17, 0, 0, 16, 6, 4, 5, 2, 0, 4, 40, 2, 9, 5, 12, 9, 9, 5, 5})
	// A zero-work job canceled before its event fires.
	f.Add(uint8(3), []byte{0, 0, 32, 2, 0, 0, 4, 1, 2, 0, 4, 200})
	f.Fuzz(func(t *testing.T, coresRaw uint8, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runSchedule(t, 1+int(coresRaw%4), ops)
	})
}

// TestTiedQuotientsKeepSliceOrder pins the division fallback: two
// unit-weight jobs one ulp apart whose completion instants round to
// the same value complete in slice order, the larger (earlier) first.
func TestTiedQuotientsKeepSliceOrder(t *testing.T) {
	w, _ := tiedWork(t, 1.0/3)
	eng := sim.NewEngine()
	cpu := New(eng, 1)
	var order []string
	cpu.Submit(60, 1, func() {})
	cpu.Submit(math.Nextafter(w, math.Inf(1)), 1, func() { order = append(order, "larger") })
	cpu.Submit(w, 1, func() { order = append(order, "smaller") })
	eng.Step()
	if len(order) != 1 || order[0] != "larger" {
		t.Fatalf("first completion %v, want the earlier job in slice order (larger)", order)
	}
}
