package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every workload runs at 1/100 of its simulated horizon and 0.2 s of
// live time, so the whole suite takes seconds.
var shortArgs = []string{"-seed", "1", "-seconds", "0.2", "-scale", "0.01"}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runBench runs the command in-process and returns its exit code,
// standard output and parsed last line.
func runBench(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, stdout.String())
	}
	if code != 0 {
		t.Logf("exit %d; stderr:\n%s", code, stderr.String())
	}
	return code, stdout.String(), res
}

func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json lists workloads %v, the command runs %v", names, ours)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, n := range append(names, declaredNames(bf)...) {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or repeated", n)
		}
		seen[n] = true
	}
}

func declaredNames(bf benchmarkFile) []string {
	var out []string
	for _, d := range append(append([]metricDecl(nil), bf.EndToEnd...), bf.PerLayer...) {
		out = append(out, d.Name)
	}
	return out
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and
// traced: each run must pass its checks and print every declared
// metric, by name with its unit, on its own line and in the result.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				code, out, res := runBench(t, append([]string{"-workload", w.name, "-trace", trace}, shortArgs...)...)
				if code != 0 || !res.Correct {
					t.Fatalf("exit %d, correct %v\n%s", code, res.Correct, out)
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				declared := bf.EndToEnd
				if trace == "1" {
					declared = bf.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("result carries %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v in the result, want unit %s", d.Name, m, d.Unit)
					}
					if !regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.Name) + ` \S+ ` + regexp.QuoteMeta(d.Unit) + `$`).MatchString(out) {
						t.Errorf("metric %s is not printed with its unit %s", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedDigestFails checks that a seed-1 outcome which differs
// from the recorded digest makes the command fail.
func TestCorruptedDigestFails(t *testing.T) {
	data, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	d := raw["digests"].(map[string]any)["0.01"].(map[string]any)["closed-cpu"].(map[string]any)
	d["completed"] = d["completed"].(float64) + 1
	corrupted := filepath.Join(t.TempDir(), "baseline.json")
	data, _ = json.Marshal(raw)
	if err := os.WriteFile(corrupted, data, 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-workload", "closed-cpu"}, shortArgs...)
	if code, out, _ := runBench(t, args...); code != 0 {
		t.Fatalf("the recorded digest fails: exit %d\n%s", code, out)
	}
	if code, _, res := runBench(t, append(args, "-baseline", corrupted)...); code == 0 || res.Correct {
		t.Errorf("a corrupted digest passed: exit %d, correct %v", code, res.Correct)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if got := h.mean(); got != 50000.5 {
		t.Errorf("mean = %v, want 50000.5", got)
	}
}
