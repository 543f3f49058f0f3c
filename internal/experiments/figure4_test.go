package experiments

import (
	"testing"

	"extsched/internal/workload"
)

// TestFig4Shape: the balanced workload's min MPL grows when CPU and
// disks are added in proportion (setups 11 vs 12) — the paper's
// "number of utilized resources" law.
func TestFig4Shape(t *testing.T) {
	mpls := []int{2, 5, 20, 30}
	small, err := ThroughputVsMPL(11, mpls, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ThroughputVsMPL(12, mpls, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Setup 11 (1 disk, 1 CPU): MPL 5 within ~8% of MPL 30.
	if small.Y[1] < 0.90*small.Y[3] {
		t.Errorf("setup 11 at MPL 5 = %v, plateau %v: knee too late", small.Y[1], small.Y[3])
	}
	// Setup 12 (4 disks, 2 CPUs): MPL 5 clearly below plateau; MPL 20
	// close to it.
	if big.Y[1] > 0.8*big.Y[3] {
		t.Errorf("setup 12 at MPL 5 = %v vs plateau %v: should be far off", big.Y[1], big.Y[3])
	}
	if big.Y[2] < 0.90*big.Y[3] {
		t.Errorf("setup 12 at MPL 20 = %v vs plateau %v: paper says ~20 suffices", big.Y[2], big.Y[3])
	}
	// Resource scaling lifts the plateau substantially.
	if big.Y[3] < 2*small.Y[3] {
		t.Errorf("scaled plateau %v should be well above base %v", big.Y[3], small.Y[3])
	}
}

// TestBalancedUtilization: the "balanced" workload really does utilize
// CPU and disk comparably at saturation (the property the paper's
// Table 1 row asserts).
func TestBalancedUtilization(t *testing.T) {
	setup, _ := workload.SetupByID(11)
	r, err := RunClosed(setup, 20, "", workload.DBOptions{}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.CPUUtil < 0.4 || r.DiskUtil < 0.4 {
		t.Errorf("utilizations cpu=%.2f disk=%.2f, want both substantial", r.CPUUtil, r.DiskUtil)
	}
	ratio := r.CPUUtil / r.DiskUtil
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("cpu/disk utilization ratio = %.2f, want balanced", ratio)
	}
}

// TestIOBoundUtilizationProfile: W_IO-inventory saturates its disk and
// barely touches the CPU.
func TestIOBoundUtilizationProfile(t *testing.T) {
	setup, _ := workload.SetupByID(5)
	r, err := RunClosed(setup, 10, "", workload.DBOptions{}, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.DiskUtil < 0.9 {
		t.Errorf("disk util = %v, want ~1 for the pure-IO workload", r.DiskUtil)
	}
	if r.CPUUtil > 0.2 {
		t.Errorf("cpu util = %v, want tiny for the pure-IO workload", r.CPUUtil)
	}
}
