// Command bench is the repository's end-to-end benchmark. It runs one
// workload (or, without -workload, every workload in its own child
// process), checks that the outputs are correct, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics of BENCHMARK.json with -trace 0, its
// per-layer metrics with -trace 1. It exits non-zero when a check
// fails. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one workload run measured and which of its
// correctness checks failed.
type report struct {
	attempted, failed uint64
	metrics           map[string]metric
	host              map[string]hostValue // host-clock values, scaled by emit
	calibrations      []float64            // seconds the reference kernel took
	notes             []string             // extra human-readable lines
	problems          []string             // failed checks
}

// hostValue is a value read off the host's clock: a time, or a rate
// per host second.
type hostValue struct {
	raw  float64
	unit string
	rate bool
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, host: map[string]hostValue{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// hostTime and hostRate record host-clock values. The host this
// benchmark runs on is shared, and its speed drifts by half over
// minutes; emit reports them at the reference speed instead (see
// hostSpeed), which is what lets runs made at different times agree.
func (r *report) hostTime(name string, v float64, unit string) {
	r.host[name] = hostValue{v, unit, false}
}
func (r *report) hostRate(name string, v float64, unit string) {
	r.host[name] = hostValue{v, unit, true}
}

// calibrate times the reference kernel once; runs call it between
// their measured stretches, so the calibrations sample the host's
// speed while the workload runs.
func (r *report) calibrate() { r.calibrations = append(r.calibrations, referenceKernel().Seconds()) }

// hostSpeed is how fast the host ran, relative to the reference
// machine: the kernel's reference time over its median time here.
func (r *report) hostSpeed() float64 { return referenceKernelTime.Seconds() / median(r.calibrations) }

// scaleHost turns the host-clock values into metrics at the reference
// speed: times multiplied by the host speed, rates divided by it.
func (r *report) scaleHost() {
	s := r.hostSpeed()
	r.note("host speed %.4f: reference kernel median %.2f ms over %d calibrations, %.2f ms on the reference machine",
		s, median(r.calibrations)*1e3, len(r.calibrations), referenceKernelTime.Seconds()*1e3)
	names := make([]string, 0, len(r.host))
	for n := range r.host {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.host[n]
		v := h.raw * s
		if h.rate {
			v = h.raw / s
		}
		r.set(n, v, h.unit)
		r.note("raw %s %s %s", n, strconv.FormatFloat(h.raw, 'g', -1, 64), h.unit)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are the settings every workload run receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   float64
	digests map[string]digest // seed-1 digests for this -scale, by workload
	spans   *spanLog          // non-nil with -trace 1
}

// benchmarkFile is the part of BENCHMARK.json the command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// baselineFile is bench/baseline.json: the seed-1 digests each sim
// workload must reproduce exactly, keyed by -scale and workload, plus
// the recorded baseline runs (documentation only).
type baselineFile struct {
	Digests map[string]map[string]digest `json:"digests"`
}

// digest is the exact seed-1 outcome of a sim workload's round.
type digest struct {
	Completed  uint64  `json:"completed"`
	Shed       uint64  `json:"shed"`
	Throughput float64 `json:"throughput"`
	MeanRT     float64 `json:"mean_rt"`
}

// findBenchmarkFile returns the path of BENCHMARK.json: in the working
// directory (the repository root) or its parent (inside bench/).
func findBenchmarkFile() (string, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..")
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, each in its own child process)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 0, "seconds to measure (default: run_seconds of BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 makes a separate traced run and reports the per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	scale := fs.Float64("scale", 1, "multiply the simulated horizons by this factor (tests use 0.01)")
	baselinePath := fs.String("baseline", "", "digest file (default: bench/baseline.json beside BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, have %d", *traceFlag))
	}
	if *spansPath != "" && *traceFlag != 1 {
		return fail(errors.New("-spans needs -trace 1"))
	}
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		return fail(fmt.Errorf("-scale %v must be a positive number", *scale))
	}
	bfPath, err := findBenchmarkFile()
	if err != nil {
		return fail(err)
	}
	var bf benchmarkFile
	if err := readJSON(bfPath, &bf); err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		return fail(fmt.Errorf("-seconds %v must be a positive number", *seconds))
	}
	if *name == "" {
		if *spansPath != "" || *cpuprofile != "" || *memprofile != "" {
			return fail(errors.New("-spans, -cpuprofile and -memprofile need -workload"))
		}
		return runAll(bf, args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *baselinePath == "" {
		*baselinePath = filepath.Join(filepath.Dir(bfPath), "bench", "baseline.json")
	}
	var base baselineFile
	if err := readJSON(*baselinePath, &base); err != nil {
		return fail(err)
	}
	o := options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *traceFlag == 1,
		scale:   *scale,
		digests: base.Digests[strconv.FormatFloat(*scale, 'g', -1, 64)],
	}
	if o.trace {
		o.spans = newSpanLog()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	r := newReport()
	if err := w.run(o, r); err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	r.scaleHost()
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fail(err)
		}
	}
	if o.spans != nil && *spansPath != "" {
		if err := o.spans.write(*spansPath); err != nil {
			return fail(err)
		}
	}
	declared := bf.EndToEnd
	if o.trace {
		declared = bf.PerLayer
	}
	return emit(r, w.name, declared, stdout, stderr)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emit prints the report: one line per metric and note, the failed
// checks on standard error, and the JSON result line last. Every
// declared metric must have been measured with its declared unit.
func emit(r *report, workload string, declared []metricDecl, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "workload %s gomaxprocs %d %s\n", workload, runtime.GOMAXPROCS(0), runtime.Version())
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(stdout, "metric %s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok:
			r.check(false, "metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			r.check(false, "metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.check(false, "metric %s is %v", d.Name, m.Value)
		default:
			out[d.Name] = m
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload of BENCHMARK.json in its own child
// process with the same flags, so none inherits another's heap.
func runAll(bf benchmarkFile, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range bf.Workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}
