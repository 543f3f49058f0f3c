package cpusched

import (
	"math"
	"testing"
	"testing/quick"

	"extsched/internal/sim"
)

func TestWeightChurnConservation(t *testing.T) {
	// Random submissions, cancellations and weight changes must still
	// conserve work: completed jobs received exactly their submitted
	// work (validated via completion times under known rates is hard;
	// instead check total busy time == total work of completed +
	// partial work of canceled).
	eng := sim.NewEngine()
	cpu := New(eng, 2)
	g := sim.NewRNG(21, 0)
	type tracked struct {
		job  Job
		work float64
	}
	var live []tracked
	totalCompleted := 0.0
	canceledWork := 0.0 // remaining at cancel
	submittedWork := 0.0
	for i := 0; i < 400; i++ {
		delay := g.Float64() * 0.1
		eng.After(delay, func() {})
		eng.RunAll()
		switch g.IntN(4) {
		case 0, 1:
			w := 0.01 + g.Float64()*0.2
			submittedWork += w
			var tr tracked
			tr.work = w
			tr.job = cpu.Submit(w, 0.5+g.Float64()*4, func() { totalCompleted += w })
			live = append(live, tr)
		case 2:
			if len(live) > 0 {
				i := g.IntN(len(live))
				canceledWork += live[i].job.Remaining()
				cpu.Cancel(live[i].job)
				live = append(live[:i], live[i+1:]...)
			}
		case 3:
			if len(live) > 0 {
				i := g.IntN(len(live))
				if live[i].job.Remaining() > 0 {
					cpu.SetWeight(live[i].job, 0.5+g.Float64()*4)
				}
			}
		}
		// Drop finished jobs from the tracking list.
		kept := live[:0]
		for _, tr := range live {
			if tr.job.Remaining() > 0 {
				kept = append(kept, tr)
			}
		}
		live = kept
	}
	eng.RunAll()
	busy := cpu.BusyCoreSeconds()
	want := submittedWork - canceledWork
	if math.Abs(busy-want) > 1e-6*(1+want) {
		t.Errorf("busy core-seconds = %v, want %v (submitted %v − canceled-remaining %v)",
			busy, want, submittedWork, canceledWork)
	}
}

func TestRatesRespectCapacityProperty(t *testing.T) {
	// At any instant, the sum of job rates never exceeds min(cores, n)
	// and no job exceeds rate 1.
	f := func(coreRaw, nRaw uint8, weightsRaw []uint8) bool {
		cores := 1 + int(coreRaw%8)
		n := 1 + int(nRaw%20)
		eng := sim.NewEngine()
		cpu := New(eng, cores)
		jobs := make([]Job, n)
		for i := range jobs {
			w := 1.0
			if len(weightsRaw) > 0 {
				w = 0.25 + float64(weightsRaw[i%len(weightsRaw)]%16)
			}
			jobs[i] = cpu.Submit(100, w, func() {})
		}
		total := 0.0
		for _, j := range jobs {
			if j.Rate() < -1e-12 || j.Rate() > 1+1e-12 {
				return false
			}
			total += j.Rate()
		}
		capacity := math.Min(float64(cores), float64(n))
		return math.Abs(total-capacity) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEqualWeightsEqualRates(t *testing.T) {
	eng := sim.NewEngine()
	cpu := New(eng, 3)
	var jobs []Job
	for i := 0; i < 7; i++ {
		jobs = append(jobs, cpu.Submit(10, 1, func() {}))
	}
	want := 3.0 / 7.0
	for i, j := range jobs {
		if math.Abs(j.Rate()-want) > 1e-12 {
			t.Errorf("job %d rate = %v, want %v", i, j.Rate(), want)
		}
	}
}

func TestStarvationImpossibleWithFiniteWeights(t *testing.T) {
	// Even a tiny-weight job gets a positive rate on a shared core.
	eng := sim.NewEngine()
	cpu := New(eng, 1)
	big := cpu.Submit(10, 1000, func() {})
	small := cpu.Submit(10, 0.001, func() {})
	if small.Rate() <= 0 {
		t.Error("small-weight job starved")
	}
	if big.Rate() <= small.Rate() {
		t.Error("weights not respected")
	}
}

func TestCompletionOrderFollowsRates(t *testing.T) {
	// Same work, different weights on one core: higher weight finishes
	// strictly first.
	eng := sim.NewEngine()
	cpu := New(eng, 1)
	var order []string
	cpu.Submit(1, 5, func() { order = append(order, "heavy") })
	cpu.Submit(1, 1, func() { order = append(order, "light") })
	eng.RunAll()
	if order[0] != "heavy" || order[1] != "light" {
		t.Errorf("order = %v", order)
	}
}
