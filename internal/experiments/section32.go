package experiments

import (
	"fmt"

	"extsched/internal/stats"
	"extsched/internal/trace"
	"extsched/internal/workload"
)

// Section32RT regenerates the Section 3.2 open-system experiment: mean
// response time vs MPL under Poisson arrivals at the given utilization
// for one setup. The paper's findings: TPC-C-based workloads are
// insensitive to the MPL once it is at least ~4; TPC-W-based ones need
// ~8 at 70% utilization and ~15 at 90%.
func Section32RT(setupID int, utilization float64, mpls []int, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	// Saturation throughput bounds the arrival rate: λ = ρ · X_max,
	// with X_max measured on the closed system without MPL.
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	lambda := utilization * base.Throughput
	if lambda <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}
	f := &Figure{
		ID:    fmt.Sprintf("sec3.2-rt@%g", utilization),
		Title: fmt.Sprintf("Open system mean RT vs MPL, setup %d (%s), utilization %.0f%%", setupID, setup.Workload.Name, utilization*100),
	}
	s := Series{Name: "meanRT (s)"}
	var noMPL float64
	grid := append(append([]int{}, mpls...), 0) // trailing 0 = no-MPL reference
	rts, err := SweepContext(opts.ctx(), len(grid), func(i int) (float64, error) {
		r, err := RunOpen(setup, grid[i], lambda, "", workload.DBOptions{}, opts)
		if err != nil {
			return 0, err
		}
		return r.MeanRT, nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range grid {
		if m == 0 {
			noMPL = rts[i]
			continue
		}
		s.X = append(s.X, float64(m))
		s.Y = append(s.Y, rts[i])
	}
	f.Series = append(f.Series, s)
	// Find the paper's headline number: min MPL within 10% of no-MPL RT.
	minMPL := 0
	for i := range s.X {
		if s.Y[i] <= 1.1*noMPL {
			minMPL = int(s.X[i])
			break
		}
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("no-MPL mean RT: %.4fs", noMPL),
		fmt.Sprintf("min MPL within 10%% of no-MPL RT: %d", minMPL))
	return f, nil
}

// C2Row is one row of the Section 3.2 variability table.
type C2Row struct {
	Source string
	C2     float64
}

// C2Table regenerates the paper's variability comparison: the C² of
// per-transaction service demand for each Table 1 workload versus the
// (synthetic) production traces. Paper values: TPC-C 1.0–1.5, TPC-W
// ≈ 15, retailer/auction traces ≈ 2.
func C2Table(samples int, seed uint64) ([]C2Row, error) {
	if samples <= 0 {
		samples = 100000
	}
	specs := workload.Table1()
	// Rows 0..len(specs)-1 sample the Table 1 generators; the last two
	// synthesize the production traces. Each row owns its generator and
	// seed-derived RNG streams, so rows fan out on the sweep pool.
	rows, err := Sweep(len(specs)+2, func(i int) (C2Row, error) {
		switch {
		case i < len(specs):
			spec := specs[i]
			g, err := workload.NewGenerator(spec, seed)
			if err != nil {
				return C2Row{}, err
			}
			var acc stats.Accumulator
			for j := 0; j < samples; j++ {
				acc.Add(g.Next().EstimatedDemand)
			}
			return C2Row{Source: spec.Name + " (" + spec.Benchmark + ")", C2: acc.C2()}, nil
		case i == len(specs):
			return C2Row{Source: "synthetic-retailer trace", C2: trace.SyntheticRetailer(samples, seed).DemandC2()}, nil
		default:
			return C2Row{Source: "synthetic-auction trace", C2: trace.SyntheticAuction(samples, seed).DemandC2()}, nil
		}
	})
	return rows, err
}

// C2Figure renders C2Table as a Figure.
func C2Figure(samples int, seed uint64) (*Figure, error) {
	rows, err := C2Table(samples, seed)
	if err != nil {
		return nil, err
	}
	f := &Figure{ID: "c2", Title: "Service-demand variability (C²) per workload and trace"}
	s := Series{Name: "C2"}
	for i, r := range rows {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, r.C2)
		f.Notes = append(f.Notes, fmt.Sprintf("x=%d: %s", i+1, r.Source))
	}
	f.Series = []Series{s}
	f.Notes = append(f.Notes, "paper: TPC-C 1.0-1.5, TPC-W ~15, production traces ~2")
	return f, nil
}
