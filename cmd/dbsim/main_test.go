package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extsched"
)

// TestRunTinyClosed drives one small closed-system simulation end to
// end through the CLI surface.
func TestRunTinyClosed(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-setup", "1", "-mpl", "5", "-clients", "20", "-warmup", "2", "-measure", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"mpl:", "throughput:", "mean RT:", "cpu util:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "mpl:              5") {
		t.Errorf("MPL not echoed:\n%s", s)
	}
}

func TestRunTinyOpen(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-setup", "1", "-mpl", "10", "-lambda", "30", "-warmup", "2", "-measure", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "throughput:") {
		t.Errorf("open-system output incomplete:\n%s", out.String())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cases := [][]string{
		{},                                // neither setup nor workload
		{"-setup", "99"},                  // unknown setup
		{"-setup", "1", "-policy", "zzz"}, // unknown policy
		{"-workload", "W_CPU-inventory", "-iso", "XX"}, // unknown isolation
		{"-no-such-flag"}, // flag parse error
	}
	for i, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): invalid invocation accepted", i, args)
		}
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

// TestRunScenarioExample: the built-in template must itself be a valid,
// runnable scenario.
func TestRunScenarioExample(t *testing.T) {
	var tmpl strings.Builder
	if err := run([]string{"-scenario-example"}, &tmpl); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, []byte(tmpl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// Shrink the template so the test stays fast: parse, trim, rewrite.
	sc, err := extsched.ParseScenario([]byte(tmpl.String()))
	if err != nil {
		t.Fatalf("template scenario invalid: %v", err)
	}
	sc.Warmup = 2
	sc.SampleInterval = 5
	for i := range sc.Phases {
		sc.Phases[i].Duration = 15
	}
	sc.Phases[0].Events = nil // controller needs long windows; drop it
	small, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, small, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-setup", "1", "-mpl", "5", "-scenario", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"scenario: surge-demo", "steady", "surge", "replay", "TOTAL", "final mpl:        5"} {
		if !strings.Contains(s, want) {
			t.Errorf("scenario output missing %q:\n%s", want, s)
		}
	}
}

// TestRunAutoscaledFleet drives a sharded open run with sampled
// dispatch and the -autoscale flag end to end: the report must carry
// the autoscale summary line and the per-shard table's fleet and
// p95 columns.
func TestRunAutoscaledFleet(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-setup", "1", "-mpl", "12", "-shards", "4",
		"-dispatch", "jsq-d:3", "-lambda", "120", "-autoscale", "2:4",
		"-warmup", "2", "-measure", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"dispatch jsq-d:3", "autoscale:        fleet ended at", "scale-ups", "shard-seconds billed", "fleet", "p95RT"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunAutoscaleFlagErrors: malformed -autoscale values and specs
// the scenario validator rejects must fail loudly, not silently run
// a fixed fleet.
func TestRunAutoscaleFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-setup", "1", "-mpl", "8", "-shards", "4", "-autoscale", "2"},       // no colon
		{"-setup", "1", "-mpl", "8", "-shards", "4", "-autoscale", "x:4"},     // bad min
		{"-setup", "1", "-mpl", "8", "-shards", "4", "-autoscale", "2:y"},     // bad max
		{"-setup", "1", "-mpl", "8", "-shards", "4", "-autoscale", "4:2"},     // min > max
		{"-setup", "1", "-mpl", "8", "-shards", "4", "-autoscale", "0:4"},     // min < 1
		{"-setup", "1", "-mpl", "8", "-autoscale", "2:4"},                     // unsharded
		{"-setup", "1", "-mpl", "8", "-shards", "4", "-dispatch", "jsq-d:0"},  // bad sample width
		{"-setup", "1", "-mpl", "8", "-shards", "4", "-dispatch", "jsq-d:xx"}, // non-numeric width
	}
	for i, args := range cases {
		var out strings.Builder
		args = append(args, "-warmup", "1", "-measure", "5", "-lambda", "50")
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): invalid invocation accepted", i, args)
		}
	}
}

func TestRunScenarioErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-setup", "1", "-scenario", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing scenario file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"phases":[{"kind":"zigzag"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-setup", "1", "-scenario", bad}, &out); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestRunWritesProfiles checks -cpuprofile and -memprofile each leave a
// non-empty pprof file behind.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out strings.Builder
	err := run([]string{"-setup", "1", "-mpl", "5", "-clients", "20", "-warmup", "2", "-measure", "10",
		"-cpuprofile", cpu, "-memprofile", mem}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}
