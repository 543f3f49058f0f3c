package workload

import (
	"math"
	"testing"

	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
	"extsched/internal/stats"
)

func TestTable1SpecsValidate(t *testing.T) {
	specs := Table1()
	if len(specs) != 6 {
		t.Fatalf("Table1 has %d workloads, want 6", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("W_IO-inventory")
	if err != nil || s.Name != "W_IO-inventory" {
		t.Errorf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTable2Shape(t *testing.T) {
	setups := Table2()
	if len(setups) != 17 {
		t.Fatalf("Table2 has %d setups, want 17", len(setups))
	}
	for i, s := range setups {
		if s.ID != i+1 {
			t.Errorf("setup at index %d has ID %d", i, s.ID)
		}
	}
	// Spot checks against the paper's Table 2.
	if s := setups[1]; s.Workload.Name != "W_CPU-inventory" || s.CPUs != 2 || s.Disks != 1 {
		t.Errorf("setup 2 wrong: %v", s)
	}
	if s := setups[7]; s.Workload.Name != "W_IO-inventory" || s.Disks != 4 {
		t.Errorf("setup 8 wrong: %v", s)
	}
	if s := setups[13]; s.Isolation != dbms.UR {
		t.Errorf("setup 14 should be UR: %v", s)
	}
	if s := setups[16]; s.Workload.Name != "W_CPU-inventory" || s.Isolation != dbms.UR {
		t.Errorf("setup 17 wrong: %v", s)
	}
}

func TestSetupByID(t *testing.T) {
	s, err := SetupByID(12)
	if err != nil || s.CPUs != 2 || s.Disks != 4 {
		t.Errorf("SetupByID(12) = %v, %v", s, err)
	}
	if _, err := SetupByID(99); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := NewGenerator(WCPUInventory(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(WCPUInventory(), 42)
	for i := 0; i < 100; i++ {
		pa, pb := a.Next(), b.Next()
		if len(pa.Ops) != len(pb.Ops) || pa.EstimatedDemand != pb.EstimatedDemand || pa.Class != pb.Class {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestGeneratorClassTagging(t *testing.T) {
	g, _ := NewGenerator(WCPUInventory(), 7)
	high := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Class == lockmgr.High {
			high++
		}
	}
	frac := float64(high) / n
	if math.Abs(frac-0.1) > 0.01 {
		t.Errorf("high fraction = %v, want ~0.1", frac)
	}
}

func TestGeneratorProfileSanity(t *testing.T) {
	for _, spec := range Table1() {
		g, err := NewGenerator(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			p := g.Next()
			if len(p.Ops) == 0 {
				t.Fatalf("%s: empty profile", spec.Name)
			}
			if p.EstimatedDemand <= 0 {
				t.Fatalf("%s: non-positive demand estimate", spec.Name)
			}
			for _, op := range p.Ops {
				if op.CPUWork < 0 {
					t.Fatalf("%s: negative CPU work", spec.Name)
				}
				for _, pg := range op.Pages {
					if pg >= spec.DBPages {
						t.Fatalf("%s: page %d outside DB", spec.Name, pg)
					}
				}
			}
		}
	}
}

// TestDemandVariabilityCalibration verifies the paper's Section 3.2
// C² characterization: TPC-C-like workloads have C² ≈ 1–1.5 and
// TPC-W-like ones C² ≈ 15.
func TestDemandVariabilityCalibration(t *testing.T) {
	wantRange := map[string][2]float64{
		"W_CPU-inventory":    {0.7, 2.2},
		"W_CPU+IO-inventory": {0.7, 2.5},
		"W_IO-inventory":     {0.3, 2.2}, // "pure IO": near-deterministic pages → lower C² is fine
		"W_CPU-browsing":     {8, 25},
		"W_IO-browsing":      {8, 25},
		"W_CPU-ordering":     {8, 25},
	}
	for _, spec := range Table1() {
		g, err := NewGenerator(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.Accumulator
		for i := 0; i < 200000; i++ {
			acc.Add(g.Next().EstimatedDemand)
		}
		r := wantRange[spec.Name]
		if acc.C2() < r[0] || acc.C2() > r[1] {
			t.Errorf("%s: demand C² = %.2f, want in [%v, %v] (mean %.4fs)",
				spec.Name, acc.C2(), r[0], r[1], acc.Mean())
		}
	}
}

// TestDemandBalanceCharacteristics checks each workload is bound by
// the resource its name claims.
func TestDemandBalanceCharacteristics(t *testing.T) {
	for _, tc := range []struct {
		spec         Spec
		cpuOverIOMin float64 // lower bound on CPU/IO demand ratio, 0 to skip
		ioOverCPUMin float64
	}{
		{WCPUInventory(), 5, 0},
		{WCPUBrowsing(), 5, 0},
		{WIOInventory(), 0, 5},
		{WIOBrowsing(), 0, 3},
		{WCPUOrdering(), 5, 0},
	} {
		cpu, io := tc.spec.MeanCPUDemand(), tc.spec.MeanIODemand()
		if tc.cpuOverIOMin > 0 && cpu < tc.cpuOverIOMin*io {
			t.Errorf("%s: cpu=%.4f io=%.4f, want CPU-bound (ratio >= %v)",
				tc.spec.Name, cpu, io, tc.cpuOverIOMin)
		}
		if tc.ioOverCPUMin > 0 && io < tc.ioOverCPUMin*cpu {
			t.Errorf("%s: cpu=%.4f io=%.4f, want IO-bound (ratio >= %v)",
				tc.spec.Name, cpu, io, tc.ioOverCPUMin)
		}
	}
	// Balanced workload: demands within 2.5x of each other.
	bal := WCPUIOInventory()
	cpu, io := bal.MeanCPUDemand(), bal.MeanIODemand()
	ratio := cpu / io
	if ratio < 1/2.5 || ratio > 2.5 {
		t.Errorf("%s: cpu=%.4f io=%.4f ratio=%.2f, want balanced", bal.Name, cpu, io, ratio)
	}
}

func TestClosedDriverPopulationInvariant(t *testing.T) {
	eng := sim.NewEngine()
	spec := WCPUInventory()
	db, err := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		BufferPoolPages: spec.BufferPoolPages,
		DiskService:     spec.DiskService,
		LogService:      spec.LogService,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe := dbfe.New(eng, db, 5, nil)
	g, _ := NewGenerator(spec, 5)
	d := NewClosedDriver(eng, fe, g, 20, nil)
	d.Start()
	// Population (queued + inside) must never exceed the client count
	// and inside must never exceed the MPL.
	violations := 0
	for i := 0; i < 20000 && eng.Step(); i++ {
		if fe.Inside() > 5 || fe.Inside()+fe.QueueLen() > 20 {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("%d population invariant violations", violations)
	}
	if fe.Metrics().Completed < 100 {
		t.Errorf("only %d completions; driver stalled?", fe.Metrics().Completed)
	}
	d.Stop()
	eng.RunAll()
}

func TestClosedDriverThinkTime(t *testing.T) {
	eng := sim.NewEngine()
	spec := WCPUInventory()
	db, _ := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		BufferPoolPages: spec.BufferPoolPages,
		DiskService:     spec.DiskService,
		LogService:      spec.LogService,
	})
	fe := dbfe.New(eng, db, 0, nil)
	g, _ := NewGenerator(spec, 6)
	// Huge think time: with 10 clients and 100s thinks, throughput
	// ≈ 10/100 = 0.1/s (service time negligible).
	d := NewClosedDriver(eng, fe, g, 10, dist.NewDeterministic(100))
	d.Start()
	eng.Run(5000)
	d.Stop()
	eng.RunAll()
	m := fe.Metrics()
	tput := float64(m.Completed) / 5000
	if math.Abs(tput-0.1) > 0.02 {
		t.Errorf("think-limited throughput = %v, want ~0.1", tput)
	}
}

func TestOpenDriverPoissonRate(t *testing.T) {
	eng := sim.NewEngine()
	spec := WCPUInventory()
	db, _ := dbms.New(eng, dbms.Config{
		CPUs: 4, Disks: 1,
		BufferPoolPages: spec.BufferPoolPages,
		DiskService:     spec.DiskService,
		LogService:      spec.LogService,
	})
	fe := dbfe.New(eng, db, 0, nil)
	g, _ := NewGenerator(spec, 8)
	d := NewOpenDriver(eng, fe, g, 20, 0)
	d.Start()
	eng.Run(500)
	d.Stop()
	eng.RunAll()
	rate := float64(d.Arrived()) / 500
	if math.Abs(rate-20)/20 > 0.05 {
		t.Errorf("arrival rate = %v, want ~20", rate)
	}
}

func TestOpenDriverLimit(t *testing.T) {
	eng := sim.NewEngine()
	spec := WCPUInventory()
	db, _ := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		BufferPoolPages: spec.BufferPoolPages,
		DiskService:     spec.DiskService,
		LogService:      spec.LogService,
	})
	fe := dbfe.New(eng, db, 0, nil)
	g, _ := NewGenerator(spec, 9)
	d := NewOpenDriver(eng, fe, g, 100, 50)
	d.Start()
	eng.RunAll()
	if d.Arrived() != 50 {
		t.Errorf("arrived = %d, want 50 (limit)", d.Arrived())
	}
	if fe.Metrics().Completed != 50 {
		t.Errorf("completed = %d, want 50", fe.Metrics().Completed)
	}
}

func TestBuildConfigRoundTrip(t *testing.T) {
	for _, s := range Table2() {
		cfg := s.BuildConfig(DBOptions{Seed: uint64(s.ID)})
		eng := sim.NewEngine()
		if _, err := dbms.New(eng, cfg); err != nil {
			t.Errorf("setup %d: config invalid: %v", s.ID, err)
		}
		if cfg.Isolation != s.Isolation || cfg.CPUs != s.CPUs || cfg.Disks != s.Disks {
			t.Errorf("setup %d: config mismatch", s.ID)
		}
	}
}

func TestSpecMissRatios(t *testing.T) {
	// Cached workloads miss ≈ 0; IO workloads miss substantially.
	if r := WCPUInventory().MissRatio(); r > 0.01 {
		t.Errorf("W_CPU-inventory miss = %v, want ~0 (fully cached)", r)
	}
	if r := WCPUBrowsing().MissRatio(); r > 0.01 {
		t.Errorf("W_CPU-browsing miss = %v, want ~0", r)
	}
	if r := WIOInventory().MissRatio(); r < 0.5 {
		t.Errorf("W_IO-inventory miss = %v, want >= 0.5", r)
	}
	if r := WIOBrowsing().MissRatio(); r < 0.4 {
		t.Errorf("W_IO-browsing miss = %v, want >= 0.4", r)
	}
	bal := WCPUIOInventory().MissRatio()
	if bal < 0.05 || bal > 0.5 {
		t.Errorf("W_CPU+IO-inventory miss = %v, want moderate", bal)
	}
}

func TestDriverValidation(t *testing.T) {
	eng := sim.NewEngine()
	spec := WCPUInventory()
	db, _ := dbms.New(eng, dbms.Config{CPUs: 1, Disks: 1, BufferPoolPages: spec.BufferPoolPages})
	fe := dbfe.New(eng, db, 1, nil)
	g, _ := NewGenerator(spec, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero clients did not panic")
			}
		}()
		NewClosedDriver(eng, fe, g, 0, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero lambda did not panic")
			}
		}()
		NewOpenDriver(eng, fe, g, 0, 0)
	}()
}

// TestCanonicalKeyOrderSorted checks that a spec with CanonicalKeyOrder
// yields lock keys in ascending order across each profile's operations.
func TestCanonicalKeyOrderSorted(t *testing.T) {
	for _, spec := range Table1() {
		if !spec.CanonicalKeyOrder {
			continue
		}
		g, err := NewGenerator(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			p := g.Next()
			for k := 1; k < len(p.Ops); k++ {
				if p.Ops[k].Key < p.Ops[k-1].Key {
					t.Fatalf("%s: keys out of order at op %d: %d after %d", spec.Name, k, p.Ops[k].Key, p.Ops[k-1].Key)
				}
			}
		}
	}
}
