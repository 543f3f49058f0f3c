package experiments

import (
	"fmt"

	"extsched/internal/controller"
	"extsched/internal/dist"
	"extsched/internal/queueing/qbd"
	"extsched/internal/stats"
)

// Figure2 regenerates "Effect of MPL on throughput in CPU bound
// workloads": (a) W_CPU-inventory with 1 vs 2 CPUs (setups 1, 2) and
// (b) W_CPU-browsing with 1 vs 2 CPUs (setups 3, 4).
func Figure2(opts RunOpts) (*Figure, error) {
	f := &Figure{ID: "fig2", Title: "Throughput vs MPL, CPU-bound workloads (setups 1-4)"}
	series, err := throughputGrid([]int{1, 2, 3, 4}, defaultMPLs(30), opts)
	if err != nil {
		return nil, err
	}
	f.Series = series
	f.Notes = append(f.Notes,
		"expect: 1-CPU curves saturate by MPL~5; 2-CPU curves need ~7-10",
		"expect: 2 CPUs roughly double the plateau throughput")
	return f, nil
}

// Figure3 regenerates "Effect of MPL on throughput in I/O bound
// workloads": (a) W_IO-inventory with 1-4 disks (setups 5-8) and (b)
// W_IO-browsing with 1 and 4 disks (setups 9, 10).
func Figure3(opts RunOpts) (*Figure, error) {
	f := &Figure{ID: "fig3", Title: "Throughput vs MPL, IO-bound workloads (setups 5-10)"}
	series, err := throughputGrid([]int{5, 6, 7, 8, 9, 10}, defaultMPLs(30), opts)
	if err != nil {
		return nil, err
	}
	f.Series = series
	f.Notes = append(f.Notes,
		"expect: min MPL for near-max throughput grows ~linearly with the disk count (~2/5/7/10 for 1-4 disks)")
	return f, nil
}

// Figure4 regenerates the balanced CPU+IO workload: setups 11 (1 disk,
// 1 CPU) and 12 (4 disks, 2 CPUs).
func Figure4(opts RunOpts) (*Figure, error) {
	f := &Figure{ID: "fig4", Title: "Throughput vs MPL, balanced CPU+IO workload (setups 11-12)"}
	series, err := throughputGrid([]int{11, 12}, defaultMPLs(35), opts)
	if err != nil {
		return nil, err
	}
	f.Series = series
	f.Notes = append(f.Notes,
		"expect: 1disk/1cpu saturates by MPL~5; 4disks/2cpus needs ~20 (more utilized resources)")
	return f, nil
}

// Figure5 regenerates the lock-contention comparison: RR vs UR
// isolation for W_CPU-inventory (setups 1, 17) and W_CPU-ordering
// (setups 15, 16).
func Figure5(opts RunOpts) (*Figure, error) {
	f := &Figure{ID: "fig5", Title: "Throughput vs MPL under heavy locking: RR vs UR (setups 1/17, 15/16)"}
	series, err := throughputGrid([]int{1, 17, 15, 16}, defaultMPLs(40), opts)
	if err != nil {
		return nil, err
	}
	f.Series = series
	f.Notes = append(f.Notes,
		"expect: more locking (RR) lowers the MPL knee; past it, extra transactions only queue on locks",
		"expect: UR reaches equal or higher plateau throughput")
	return f, nil
}

// Figure7 regenerates the analytic throughput-vs-MPL curves of the
// Section 4.1 closed queueing model for 1-16 disks, marking the
// minimum MPL reaching 80% and 95% of maximum throughput. The paper's
// observation: both loci are perfectly straight lines in the disk
// count.
func Figure7() (*Figure, error) {
	f := &Figure{ID: "fig7", Title: "MVA model: throughput vs MPL for 1-16 disks, with 80%/95% min-MPL loci"}
	const ioDemand = 1.0 // seconds; relative throughput is scale-free
	disks := []int{1, 2, 3, 4, 8, 16}
	maxMPL := 100
	var loci80, loci95 Series
	loci80.Name = "minMPL@80%"
	loci95.Name = "minMPL@95%"
	type diskCurve struct {
		s            Series
		min80, min95 int
	}
	curves, err := Sweep(len(disks), func(i int) (diskCurve, error) {
		d := disks[i]
		m := controller.Model{Disks: d, IODemand: ioDemand, Cap: 2000}
		nw, err := m.Network()
		if err != nil {
			return diskCurve{}, err
		}
		c := diskCurve{s: Series{Name: fmt.Sprintf("%ddisks", d)}}
		for _, r := range nw.Solve(maxMPL) {
			c.s.X = append(c.s.X, float64(r.Population))
			c.s.Y = append(c.s.Y, r.Throughput)
		}
		m.Loss = 0.20
		r80, err := controller.Recommend(m)
		if err != nil {
			return diskCurve{}, err
		}
		m.Loss = 0.05
		r95, err := controller.Recommend(m)
		if err != nil {
			return diskCurve{}, err
		}
		c.min80, c.min95 = r80.ThroughputMPL, r95.ThroughputMPL
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range curves {
		f.Series = append(f.Series, c.s)
		loci80.X = append(loci80.X, float64(disks[i]))
		loci80.Y = append(loci80.Y, float64(c.min80))
		loci95.X = append(loci95.X, float64(disks[i]))
		loci95.Y = append(loci95.Y, float64(c.min95))
	}
	f.Series = append(f.Series, loci80, loci95)
	s80, _, r80 := stats.LinearFit(loci80.X, loci80.Y)
	s95, _, r95 := stats.LinearFit(loci95.X, loci95.Y)
	f.Notes = append(f.Notes,
		fmt.Sprintf("80%% locus: slope %.2f per disk, R²=%.4f (paper: perfectly straight)", s80, r80),
		fmt.Sprintf("95%% locus: slope %.2f per disk, R²=%.4f (paper: perfectly straight)", s95, r95))
	return f, nil
}

// Figure10 regenerates the CTMC evaluation: mean response time vs MPL
// for C² in {2, 5, 10, 15} plus the PS limit, at loads 0.7 and 0.9.
// Job size mean is 100 ms as in the paper (response times in the
// hundreds of ms).
func Figure10() (*Figure, error) {
	f := &Figure{ID: "fig10", Title: "QBD model: mean response time (ms) vs MPL; loads 0.7 and 0.9"}
	const meanSize = 0.1
	mpls := []int{1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35}
	loads := []float64{0.7, 0.9}
	c2s := []float64{2, 5, 10, 15}
	// One sweep point per (load, C²) curve; the per-MPL QBD solves
	// inside a curve share nothing with the other curves.
	type curvePoint struct{ load, c2 float64 }
	var points []curvePoint
	for _, load := range loads {
		for _, c2 := range c2s {
			points = append(points, curvePoint{load: load, c2: c2})
		}
	}
	curves, err := Sweep(len(points), func(i int) (Series, error) {
		load, c2 := points[i].load, points[i].c2
		lambda := load / meanSize
		job := dist.FitH2(meanSize, c2)
		s := Series{Name: fmt.Sprintf("load%.1f/C2=%g", load, c2)}
		for _, m := range mpls {
			sol, err := qbd.Solve(qbd.Model{Lambda: lambda, Job: job, MPL: m})
			if err != nil {
				return Series{}, fmt.Errorf("load %v C² %v MPL %d: %w", load, c2, m, err)
			}
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, sol.MeanRT*1000)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	for li, load := range loads {
		f.Series = append(f.Series, curves[li*len(c2s):(li+1)*len(c2s)]...)
		ps := Series{Name: fmt.Sprintf("load%.1f/PS", load)}
		psRT := meanSize / (1 - load) * 1000
		for _, m := range mpls {
			ps.X = append(ps.X, float64(m))
			ps.Y = append(ps.Y, psRT)
		}
		f.Series = append(f.Series, ps)
	}
	f.Notes = append(f.Notes,
		"expect: C2<=2 flat in MPL (≈PS) from MPL~5",
		"expect: C2=5-15 need MPL ~10 (load .7) to ~30 (load .9) to approach PS")
	return f, nil
}
