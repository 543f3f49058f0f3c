package controller

import (
	"strings"
	"testing"

	"extsched/internal/workload"
)

// TestRecommendTable2 pins the Section 4.1 throughput bound on every
// Table 2 setup at 5% and 20% loss. These are the exact-MVA picks that
// EXPERIMENTS.md ("One MPL recommender") checks against the simulator.
func TestRecommendTable2(t *testing.T) {
	want := [17][2]int{
		{1, 1}, {4, 2}, {1, 1}, {4, 2}, {1, 1}, {20, 5}, {39, 9}, {58, 13}, {2, 1},
		{58, 13}, {5, 2}, {20, 10}, {1, 1}, {1, 1}, {4, 3}, {4, 3}, {1, 1},
	}
	for i, w := range want {
		setup, err := workload.SetupByID(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		cpuD, ioD := setup.Demands()
		for j, loss := range []float64{0.05, 0.20} {
			rec, err := Recommend(Model{
				CPUs: setup.CPUs, Disks: setup.Disks,
				CPUDemand: cpuD, IODemand: ioD, Loss: loss,
			})
			if err != nil {
				t.Fatalf("setup %d, loss %v: %v", i+1, loss, err)
			}
			if rec.ThroughputMPL != w[j] || rec.MPL != w[j] || rec.ResponseTimeMPL != 0 {
				t.Errorf("setup %d, loss %v: got %+v, want throughput and overall MPL %d", i+1, loss, rec, w[j])
			}
		}
	}
}

// TestRecommendCapRule pins the one cap rule: each bound is searched in
// [1, Cap], a bound equal to Cap is returned, and a criterion that no
// MPL up to Cap meets is an error naming it, never a clamped value.
func TestRecommendCapRule(t *testing.T) {
	tput := Model{CPUs: 1, Disks: 4, CPUDemand: 0.001, IODemand: 0.2, Loss: 0.05}
	free, err := Recommend(tput)
	if err != nil {
		t.Fatal(err)
	}
	n := free.ThroughputMPL
	tput.Cap = n
	if rec, err := Recommend(tput); err != nil || rec.MPL != n {
		t.Errorf("cap %d = the bound: got %+v, %v; want MPL %d", n, rec, err, n)
	}
	tput.Cap = n - 1
	if rec, err := Recommend(tput); err == nil || !strings.Contains(err.Error(), "throughput loss") {
		t.Errorf("cap %d below the throughput bound %d: got %+v, %v; want a throughput error", n-1, n, rec, err)
	}

	rt := Model{
		CPUs: 1, Disks: 1, CPUDemand: 0.1, Loss: 0.05,
		Lambda: 7, MeanDemand: 0.1, DemandC2: 15, RTTolerance: 0.1, // rho 0.7
	}
	free, err = Recommend(rt)
	if err != nil {
		t.Fatal(err)
	}
	n = free.ResponseTimeMPL
	if n <= free.ThroughputMPL || free.MPL != n {
		t.Fatalf("RT bound should decide: %+v", free)
	}
	rt.Cap = n
	if rec, err := Recommend(rt); err != nil || rec.MPL != n {
		t.Errorf("cap %d = the RT bound: got %+v, %v; want MPL %d", n, rec, err, n)
	}
	rt.Cap = n - 1
	if rec, err := Recommend(rt); err == nil || !strings.Contains(err.Error(), "response-time") {
		t.Errorf("cap %d below the RT bound %d: got %+v, %v; want a response-time error", n-1, n, rec, err)
	}
}

// TestRecommendDefaultCap: with Cap zero the search reaches 500, so a
// 16-disk array's 95% bound (286) is found.
func TestRecommendDefaultCap(t *testing.T) {
	rec, err := Recommend(Model{CPUs: 1, Disks: 16, CPUDemand: 0.0001, IODemand: 0.2, Loss: 0.05})
	if err != nil || rec.MPL != 286 {
		t.Errorf("16 disks at 5%% loss: got %+v, %v; want MPL 286", rec, err)
	}
	if _, err := Recommend(Model{CPUs: 1, Disks: 16, CPUDemand: 0.0001, IODemand: 0.2, Loss: 0.001}); err == nil {
		t.Error("0.1% loss on 16 disks needs more than 500, but no error")
	}
}
