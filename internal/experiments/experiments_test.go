package experiments

import (
	"math"
	"strings"
	"testing"

	"extsched/internal/workload"
)

// fastOpts keeps simulation tests quick; shape assertions use wide
// tolerances accordingly.
var fastOpts = RunOpts{Warmup: 20, Measure: 150, Seed: 1}

func TestRunClosedBasics(t *testing.T) {
	setup, _ := workload.SetupByID(1)
	r, err := RunClosed(setup, 5, "", workload.DBOptions{}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput < 50 || r.Throughput > 150 {
		t.Errorf("setup 1 MPL 5 throughput = %v, want ~95", r.Throughput)
	}
	if r.MeanRT <= 0 {
		t.Error("mean RT missing")
	}
	if r.CPUUtil <= 0.5 {
		t.Errorf("CPU util = %v, want high for CPU-bound saturated setup", r.CPUUtil)
	}
}

func TestRunClosedDeterministic(t *testing.T) {
	setup, _ := workload.SetupByID(1)
	a, err := RunClosed(setup, 5, "", workload.DBOptions{}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunClosed(setup, 5, "", workload.DBOptions{}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.MeanRT != b.MeanRT {
		t.Error("same-seed runs differ")
	}
}

// TestFig2Shape: single-CPU saturates by MPL ~5; two CPUs roughly
// double the plateau and need a higher MPL.
func TestFig2Shape(t *testing.T) {
	mpls := []int{1, 2, 5, 10, 20}
	one, err := ThroughputVsMPL(1, mpls, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	two, err := ThroughputVsMPL(2, mpls, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	onePlateau := one.Y[4]
	twoPlateau := two.Y[4]
	if ratio := twoPlateau / onePlateau; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("2-CPU/1-CPU plateau ratio = %v, want ~2", ratio)
	}
	// 1 CPU: MPL 5 already within 5% of MPL 20.
	if one.Y[2] < 0.95*onePlateau {
		t.Errorf("1 CPU at MPL 5 = %v, want >= 95%% of plateau %v", one.Y[2], onePlateau)
	}
	// 2 CPUs at MPL 2 is NOT yet at plateau (needs more).
	if two.Y[1] > 0.97*twoPlateau {
		t.Errorf("2 CPUs at MPL 2 = %v already at plateau %v; expected a later knee", two.Y[1], twoPlateau)
	}
}

// TestFig3Shape: the min MPL for near-max throughput grows with the
// disk count.
func TestFig3Shape(t *testing.T) {
	mpls := []int{1, 2, 5, 10, 20, 30}
	curves := map[int]Series{}
	for _, id := range []int{5, 8} { // 1 disk and 4 disks
		s, err := ThroughputVsMPL(id, mpls, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		curves[id] = s
	}
	// 1 disk saturates immediately: MPL 2 within 5% of MPL 30.
	if curves[5].Y[1] < 0.95*curves[5].Y[5] {
		t.Errorf("1 disk at MPL 2 = %v, plateau %v", curves[5].Y[1], curves[5].Y[5])
	}
	// 4 disks at MPL 2 is far from its plateau.
	if curves[8].Y[1] > 0.6*curves[8].Y[5] {
		t.Errorf("4 disks at MPL 2 = %v, plateau %v: knee too early", curves[8].Y[1], curves[8].Y[5])
	}
	// 4-disk plateau ≈ 4x the 1-disk plateau.
	if r := curves[8].Y[5] / curves[5].Y[5]; r < 3 || r > 4.6 {
		t.Errorf("4-disk/1-disk plateau ratio = %v, want ~4", r)
	}
}

// TestFig5Shape: RR throughput falls below UR at high MPL (lock
// thrashing), while both agree at low MPL.
func TestFig5Shape(t *testing.T) {
	mpls := []int{2, 5, 40}
	rr, err := ThroughputVsMPL(15, mpls, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := ThroughputVsMPL(16, mpls, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rr.Y[0]-ur.Y[0])/ur.Y[0] > 0.1 {
		t.Errorf("RR and UR should agree at MPL 2: %v vs %v", rr.Y[0], ur.Y[0])
	}
	if rr.Y[2] > 0.85*ur.Y[2] {
		t.Errorf("RR at MPL 40 (%v) should fall well below UR (%v)", rr.Y[2], ur.Y[2])
	}
	if rr.Y[2] > rr.Y[1] {
		t.Errorf("RR should decline past the knee: MPL5=%v MPL40=%v", rr.Y[1], rr.Y[2])
	}
}

func TestFigure7LinearLoci(t *testing.T) {
	fig, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, n := range fig.Notes {
		if strings.Contains(n, "R²=") {
			found++
			if !strings.Contains(n, "R²=0.99") && !strings.Contains(n, "R²=1.0") {
				t.Errorf("locus not linear: %s", n)
			}
		}
	}
	if found != 2 {
		t.Errorf("expected 2 loci notes, got %d", found)
	}
}

func TestFigure10Shape(t *testing.T) {
	fig, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	// Locate series by name.
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	c2hi := byName["load0.7/C2=15"]
	ps := byName["load0.7/PS"]
	if len(c2hi.Y) == 0 || len(ps.Y) == 0 {
		t.Fatal("missing series")
	}
	// High C² at MPL 1 is far above PS; at MPL 35 close to PS.
	if c2hi.Y[0] < 2*ps.Y[0] {
		t.Errorf("C²=15 at MPL 1 (%v) should far exceed PS (%v)", c2hi.Y[0], ps.Y[0])
	}
	last := len(c2hi.Y) - 1
	if c2hi.Y[last] > 1.15*ps.Y[last] {
		t.Errorf("C²=15 at MPL 35 (%v) should approach PS (%v)", c2hi.Y[last], ps.Y[last])
	}
	// Load 0.9 needs a larger MPL: at MPL 10 the C²=15 curve is still
	// well above PS at load .9 but near it at load .7.
	c2hi9 := byName["load0.9/C2=15"]
	ps9 := byName["load0.9/PS"]
	idx10 := -1
	for i, x := range c2hi9.X {
		if x == 10 {
			idx10 = i
		}
	}
	if idx10 < 0 {
		t.Fatal("MPL 10 not in grid")
	}
	if c2hi9.Y[idx10] < 1.3*ps9.Y[idx10] {
		t.Errorf("load .9 C²=15 at MPL 10 (%v) should still be >1.3x PS (%v)", c2hi9.Y[idx10], ps9.Y[idx10])
	}
}

func TestFindMPLForLoss(t *testing.T) {
	setup, _ := workload.SetupByID(8) // 4 disks
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	mpl5, err := FindMPLForLoss(setup, base.Throughput, 0.05, 60, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	mpl20, err := FindMPLForLoss(setup, base.Throughput, 0.20, 60, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if mpl20 >= mpl5 {
		t.Errorf("20%%-loss MPL (%d) should be below 5%%-loss MPL (%d)", mpl20, mpl5)
	}
	if mpl5 < 4 {
		t.Errorf("5%%-loss MPL on 4 disks = %d, want >= 4", mpl5)
	}
	// Verify the chosen MPL actually meets the target.
	r, err := RunClosed(setup, mpl5, "", workload.DBOptions{}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput < 0.93*base.Throughput {
		t.Errorf("MPL %d gives %v, baseline %v: misses the 5%% target", mpl5, r.Throughput, base.Throughput)
	}
}

func TestRunPrioritizationDifferentiates(t *testing.T) {
	r, err := RunPrioritization(1, 0.05, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Differentiation() < 2 {
		t.Errorf("differentiation = %.1fx, want >= 2x (res %+v)", r.Differentiation(), r)
	}
	if r.LowPenalty() > 2.0 {
		t.Errorf("low-priority penalty = %.2fx, want bounded", r.LowPenalty())
	}
	if r.Tput < 0.9*r.Baseline {
		t.Errorf("throughput %v lost more than ~5%%+noise vs baseline %v", r.Tput, r.Baseline)
	}
}

func TestCompareInternalExternal(t *testing.T) {
	comps, err := CompareInternalExternal(1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 4 {
		t.Fatalf("variants = %d, want 4", len(comps))
	}
	byVariant := map[string]InternalComparison{}
	for _, c := range comps {
		byVariant[c.Variant] = c
	}
	internal := byVariant["internal"]
	ext95 := byVariant["ext95"]
	if internal.High <= 0 || ext95.High <= 0 {
		t.Fatal("missing results")
	}
	// Both must differentiate: high beats low.
	if internal.Low <= internal.High {
		t.Errorf("internal: high %v not better than low %v", internal.High, internal.Low)
	}
	if ext95.Low <= ext95.High {
		t.Errorf("ext95: high %v not better than low %v", ext95.High, ext95.Low)
	}
}

func TestSection32RTShape(t *testing.T) {
	// TPC-W-like workload at 70% utilization: RT at MPL 1 well above
	// RT at MPL 25 (HOL blocking by huge queries).
	fig, err := Section32RT(3, 0.7, []int{1, 8, 25}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if s.Y[0] < 1.5*s.Y[2] {
		t.Errorf("MPL 1 RT (%v) should far exceed MPL 25 RT (%v) for C²≈15", s.Y[0], s.Y[2])
	}
}

func TestC2TableValues(t *testing.T) {
	rows, err := C2Table(100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 6 workloads + 2 traces", len(rows))
	}
	for _, r := range rows {
		switch {
		case strings.Contains(r.Source, "TPC-C"):
			if r.C2 < 0.3 || r.C2 > 2.5 {
				t.Errorf("%s: C² = %v, want low", r.Source, r.C2)
			}
		case strings.Contains(r.Source, "TPC-W"):
			if r.C2 < 8 || r.C2 > 25 {
				t.Errorf("%s: C² = %v, want ~15", r.Source, r.C2)
			}
		case strings.Contains(r.Source, "trace"):
			if r.C2 < 1.5 || r.C2 > 3.2 {
				t.Errorf("%s: C² = %v, want ~2", r.Source, r.C2)
			}
		}
	}
}

func TestControllerExperiment(t *testing.T) {
	r, err := RunController(1, 0.05, true, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Errorf("did not converge: %+v", r)
	}
	if r.Iterations >= 10 {
		t.Errorf("iterations = %d, want < 10", r.Iterations)
	}
}

func TestFigureFormatAndCSV(t *testing.T) {
	fig := &Figure{
		ID:    "test",
		Title: "t",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{5, 6}},
		},
		Notes: []string{"n1"},
	}
	txt := fig.Format()
	if !strings.Contains(txt, "== test: t ==") || !strings.Contains(txt, "note: n1") {
		t.Errorf("Format missing parts:\n%s", txt)
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "x,a,b") || !strings.Contains(csv, "1,3,5") {
		t.Errorf("CSV missing parts:\n%s", csv)
	}
}

func TestDefaultMPLsGrid(t *testing.T) {
	g := defaultMPLs(30)
	if g[0] != 1 {
		t.Error("grid must start at 1")
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Error("grid must be increasing")
		}
	}
	if g[len(g)-1] > 30 {
		t.Error("grid exceeded max")
	}
}

func TestGroupCommitAblation(t *testing.T) {
	fig, err := GroupCommitAblation(1, []int{20}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	serial, grouped := fig.Series[0].Y[0], fig.Series[1].Y[0]
	// Group commit should not hurt, and on this commit-heavy workload
	// it should help at a high MPL.
	if grouped < serial*0.98 {
		t.Errorf("group commit hurt throughput: %v vs %v", grouped, serial)
	}
}

func TestPOWAblation(t *testing.T) {
	fig, err := POWAblation(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	high := byName["HighPrio RT (s)"]
	// Priority lock queues should improve high-class RT vs no priority.
	if high.Y[1] > high.Y[0] {
		t.Errorf("prio-queue high RT (%v) worse than no-priority (%v)", high.Y[1], high.Y[0])
	}
	// POW should record preemptions.
	pre := byName["preemptions"]
	if pre.Y[2] <= 0 {
		t.Error("POW recorded no preemptions on the lock-bound setup")
	}
}

func TestPolicyComparison(t *testing.T) {
	fig, err := PolicyComparison(3, 3, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	mean := byName["Mean RT (s)"]
	// SJF (x=1) beats FIFO (x=0) on overall mean RT for the
	// high-variability workload.
	if mean.Y[1] > mean.Y[0]*0.95 {
		t.Errorf("SJF mean RT (%v) should clearly beat FIFO (%v) at C²≈15", mean.Y[1], mean.Y[0])
	}
	// Priority (x=2) gives the best high-class RT.
	high := byName["HighPrio RT (s)"]
	if high.Y[2] > high.Y[0] {
		t.Errorf("priority high-class RT (%v) should beat FIFO (%v)", high.Y[2], high.Y[0])
	}
}

func TestAdmissionComparison(t *testing.T) {
	fig, err := AdmissionComparison(1, 5, 10, 0.9, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	drops := byName["dropped/s"]
	if drops.Y[0] != 0 {
		t.Error("pure external scheduling must not drop")
	}
	// With a tight queue bound at 90% load, some drops are expected.
	if drops.Y[1] < 0 {
		t.Error("negative drop rate")
	}
}

func TestChartRendering(t *testing.T) {
	fig := &Figure{
		ID:    "chart-test",
		Title: "t",
		Series: []Series{
			{Name: "up", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}},
			{Name: "down", X: []float64{0, 1, 2, 3}, Y: []float64{3, 2, 1, 0}},
		},
		Notes: []string{"hello"},
	}
	out := fig.Chart(40, 10)
	if !strings.Contains(out, "* = up") || !strings.Contains(out, "o = down") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "note: hello") {
		t.Error("notes missing")
	}
	// Corners: "up" hits top-right and bottom-left.
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Fatalf("chart too short:\n%s", out)
	}
	top := lines[1]
	if !strings.Contains(top, "*") {
		t.Errorf("top row missing up-series marker:\n%s", out)
	}
	// Degenerate figures must not panic.
	empty := &Figure{ID: "e", Title: "e"}
	_ = empty.Chart(40, 10)
	flat := &Figure{ID: "f", Title: "f", Series: []Series{{Name: "c", X: []float64{1}, Y: []float64{5}}}}
	_ = flat.Chart(40, 10)
}

func TestChartMinimumDimensions(t *testing.T) {
	fig := &Figure{
		ID: "m", Title: "m",
		Series: []Series{{Name: "s", X: []float64{0, 1}, Y: []float64{0, 1}}},
	}
	out := fig.Chart(1, 1) // clamped to minimums, must not panic
	if len(out) == 0 {
		t.Error("empty chart")
	}
}

func TestSection32Summary(t *testing.T) {
	fig, err := Section32Summary(0.15, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Y) != 4 {
		t.Fatalf("cells = %d, want 4", len(s.Y))
	}
	tpccAt7, tpccAt9 := int(s.Y[0]), int(s.Y[1])
	tpcwAt7, tpcwAt9 := int(s.Y[2]), int(s.Y[3])
	// TPC-C-like: small MPLs suffice at both loads.
	if tpccAt7 > 8 || tpccAt9 > 10 {
		t.Errorf("TPC-C min MPLs = %d/%d, want small", tpccAt7, tpccAt9)
	}
	// TPC-W-like needs more, and more still at higher load.
	if tpcwAt7 < tpccAt7 {
		t.Errorf("TPC-W at 70%% (%d) should need >= TPC-C (%d)", tpcwAt7, tpccAt7)
	}
	if tpcwAt9 < tpcwAt7 {
		t.Errorf("TPC-W at 90%% (%d) should need >= 70%% (%d)", tpcwAt9, tpcwAt7)
	}
}
