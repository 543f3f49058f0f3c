package cpusched

import (
	"testing"

	"extsched/internal/sim"
)

// BenchmarkSubmitComplete times one completion of a closed population
// of jobs, each completion submitting the next burst: one op is one
// engine step, so it covers the completion, the submit and the re-arm
// of the CPU's completion event.
func BenchmarkSubmitComplete(b *testing.B) {
	for _, bc := range []struct {
		name    string
		cores   int
		jobs    int
		weights []float64
	}{
		// closed-cpu's shape: one core at MPL 10.
		{"1core_10unit", 1, 10, []float64{1}},
		{"2core_16unit", 2, 16, []float64{1}},
		{"1core_10mixed", 1, 10, []float64{1, 1, 1, 0.5, 20}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Exponential bursts of mean 10 ms, drawn ahead so the
			// loop times the scheduler alone; the odd table length
			// keeps the pattern from lining up with the population.
			g := sim.NewRNG(1, 0)
			works := make([]float64, 1021)
			for i := range works {
				works[i] = 0.01 * g.ExpFloat64()
			}
			eng := sim.NewEngine()
			cpu := New(eng, bc.cores)
			n := 0
			var done func()
			done = func() {
				n++
				cpu.Submit(works[n%len(works)], bc.weights[n%len(bc.weights)], done)
			}
			for i := 0; i < bc.jobs; i++ {
				done()
			}
			for i := 0; i < 1000; i++ {
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}
