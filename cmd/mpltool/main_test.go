package main

import (
	"strconv"
	"strings"
	"testing"

	"extsched/internal/workload"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 17 {
		t.Errorf("listed %d setups, want 17", n)
	}
}

func TestRunExplicitDemands(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-cpus", "1", "-disks", "4", "-cpu-demand", "0.001", "-io-demand", "0.2", "-max-loss", "0.05"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recommended MPL:") {
		t.Errorf("missing recommendation in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "throughput criterion") {
		t.Errorf("missing MVA criterion line:\n%s", out.String())
	}
}

func TestRunSetupMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-setup", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recommended MPL: 58\n") {
		t.Errorf("missing the setup's recommendation:\n%s", out.String())
	}
}

// TestSetupMatchesExplicitDemands: -setup only fills in the hardware
// and demand flags, so setup 8 and the same hardware given as explicit
// demands print the same recommendation.
func TestSetupMatchesExplicitDemands(t *testing.T) {
	recommended := func(args ...string) string {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "recommended MPL:") {
				return line
			}
		}
		t.Fatalf("no recommendation in output:\n%s", out.String())
		return ""
	}
	s, err := workload.SetupByID(8)
	if err != nil {
		t.Fatal(err)
	}
	cpuD, ioD := s.Demands()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, loss := range []string{"0.05", "0.2"} {
		fromSetup := recommended("-setup", "8", "-max-loss", loss)
		explicit := recommended("-cpus", strconv.Itoa(s.CPUs), "-disks", strconv.Itoa(s.Disks),
			"-cpu-demand", g(cpuD), "-io-demand", g(ioD), "-max-loss", loss)
		if fromSetup != explicit {
			t.Errorf("loss %s: -setup 8 printed %q, explicit demands %q", loss, fromSetup, explicit)
		}
	}
}

func TestRunRejectsMissingDemands(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no-demand invocation accepted")
	}
}

func TestRunRejectsBadSetup(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-setup", "99"}, &out); err == nil {
		t.Error("unknown setup accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil {
		t.Errorf("-h returned %v, want nil", err)
	}
	if !strings.Contains(out.String(), "Usage") {
		t.Errorf("-h did not print usage:\n%s", out.String())
	}
}
