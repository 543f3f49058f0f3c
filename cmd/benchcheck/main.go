// Command benchcheck is the bench-regression gate: it re-measures the
// repository's tracked performance metrics — kernel microbenchmarks
// (ns/op and allocs/op), live-gate overhead (serial plus RunParallel
// contention sweeps at GOMAXPROCS 2/4/8, the Pool fast path, and the
// allocations of one request through the HTTP middleware),
// dispatch-policy pick cost at fleet sizes 8 and 1000 (the sampled
// "jsq-d" path must stay allocation-free and flat in N), the DBMS
// model's allocations (a cold-key lock request, a CPU burst and a
// disk I/O at 0 per op; a warmed closed setup-1 run per commit), the
// frontend's dispatch-time shed (0 per op), and the
// deterministic summary numbers of the fig7, dispatch, slo, churn,
// autoscale and fairness figures — and compares
// them against the committed BENCH_baseline.json with per-metric
// tolerances. Any regression exits nonzero, which is what lets CI
// refuse a PR that slows a hot path or silently changes a figure.
//
//	benchcheck                                  # compare against BENCH_baseline.json
//	benchcheck -out BENCH_current.json          # also write the fresh measurements
//	benchcheck -update                          # re-baseline (when a speedup lands,
//	                                            # commit the refreshed file in the same PR)
//	benchcheck -cpuprofile cpu.out              # also profile the measurements
//
// Two metric families behave differently:
//
//   - wall-time metrics (kind "time", direction lower-is-better) vary
//     with the host; their tolerances are wide (default 25%) so only a
//     real slowdown — the acceptance bar is catching a 30% one — trips
//     them, and re-baselining on new hardware is expected;
//   - alloc counts and figure summaries (kinds "allocs", "value") are
//     hardware-independent: allocs tolerate zero drift, figure values
//     a small band (they are deterministic given the seed, so drift
//     means the simulation's behavior changed).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"extsched/gate"
	"extsched/internal/bufferpool"
	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/cpusched"
	"extsched/internal/disk"
	"extsched/internal/experiments"
	"extsched/internal/lockmgr"
	"extsched/internal/profile"
	"extsched/internal/runner"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// discardWriter is a reusable http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// Metric is one tracked measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Kind is "time" (ns/op, host-dependent), "allocs" (allocs/op), or
	// "value" (deterministic figure summary).
	Kind string `json:"kind"`
	// Tolerance is the allowed relative drift (e.g. 0.25 = 25%). For
	// "time" and "allocs" only increases count against it
	// (lower-is-better); for "value" any drift does.
	Tolerance float64 `json:"tolerance"`
}

// Baseline is the committed reference file.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note    string   `json:"note,omitempty"`
	Metrics []Metric `json:"metrics"`
}

func defaultTolerance(kind string) float64 {
	switch kind {
	case "time":
		return 0.25
	case "allocs":
		return 0
	default:
		return 0.10
	}
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
		outPath      = flag.String("out", "", "write the fresh measurements to this file")
		update       = flag.Bool("update", false, "rewrite the baseline from the fresh measurements (keeps existing per-metric tolerances)")
		timeTol      = flag.Float64("time-tolerance", 0, "override the tolerance of every \"time\"-kind metric (0 = use the baseline's). CI runs on whatever hardware it gets, so it widens these; local runs keep the strict per-metric values")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile of the measurements to this file")
		memProf      = flag.String("memprofile", "", "write a heap profile at the end of the measurements to this file")
	)
	flag.Parse()

	stopProfile, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	fresh, err := measure()
	err = errors.Join(err, stopProfile())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	if *outPath != "" {
		if err := writeBaseline(*outPath, Baseline{Note: baselineNote, Metrics: fresh}); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
	}
	if *update {
		// Preserve hand-tuned tolerances for metrics that already exist.
		if old, err := readBaseline(*baselinePath); err == nil {
			tol := make(map[string]float64, len(old.Metrics))
			for _, m := range old.Metrics {
				tol[m.Name] = m.Tolerance
			}
			for i := range fresh {
				if t, ok := tol[fresh[i].Name]; ok {
					fresh[i].Tolerance = t
				}
			}
		}
		if err := writeBaseline(*baselinePath, Baseline{Note: baselineNote, Metrics: fresh}); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		fmt.Printf("benchcheck: wrote %d metrics to %s\n", len(fresh), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	if *timeTol > 0 {
		for i := range base.Metrics {
			if base.Metrics[i].Kind == "time" {
				base.Metrics[i].Tolerance = *timeTol
			}
		}
	}
	os.Exit(compare(base.Metrics, fresh))
}

const baselineNote = "regenerate with: go run ./cmd/benchcheck -update (see EXPERIMENTS.md for when re-baselining is legitimate)"

// compare reports PASS/FAIL per metric and returns the exit code.
func compare(base, fresh []Metric) int {
	cur := make(map[string]Metric, len(fresh))
	for _, m := range fresh {
		cur[m.Name] = m
	}
	sort.Slice(base, func(i, j int) bool { return base[i].Name < base[j].Name })
	code := 0
	fmt.Printf("%-40s %14s %14s %9s  %s\n", "metric", "baseline", "current", "drift", "verdict")
	for _, b := range base {
		c, ok := cur[b.Name]
		if !ok {
			fmt.Printf("%-40s %14.4g %14s %9s  FAIL (metric no longer measured)\n", b.Name, b.Value, "-", "-")
			code = 1
			continue
		}
		drift := 0.0
		if b.Value != 0 {
			drift = (c.Value - b.Value) / math.Abs(b.Value)
		} else if c.Value != 0 {
			drift = math.Inf(1)
		}
		bad := false
		switch b.Kind {
		case "time", "allocs":
			bad = drift > b.Tolerance
		default: // "value": deterministic — drift either way is a change
			bad = math.Abs(drift) > b.Tolerance
		}
		verdict := "ok"
		if bad {
			verdict = "FAIL"
			code = 1
		} else if b.Kind == "time" && drift < -b.Tolerance {
			verdict = "ok (improved — consider -update)"
		}
		fmt.Printf("%-40s %14.4g %14.4g %8.1f%%  %s\n", b.Name, b.Value, c.Value, drift*100, verdict)
	}
	for _, m := range fresh {
		found := false
		for _, b := range base {
			if b.Name == m.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-40s %14s %14.4g %9s  new metric (not in baseline; run -update)\n", m.Name, "-", m.Value, "-")
		}
	}
	if code != 0 {
		fmt.Println("benchcheck: REGRESSION against", "baseline")
	}
	return code
}

// measure runs every tracked measurement.
func measure() ([]Metric, error) {
	var out []Metric
	add := func(name, kind string, value float64) {
		out = append(out, Metric{Name: name, Value: value, Kind: kind, Tolerance: defaultTolerance(kind)})
	}

	// Kernel: one event scheduled and fired per op against a standing
	// population (the repository-root BenchmarkEngineSchedule).
	r := testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 1024; i++ {
			eng.After(float64(i)+0.5, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.After(0.25, fn)
			eng.Step()
		}
	})
	add("kernel/engine_schedule/ns_op", "time", float64(r.NsPerOp()))
	add("kernel/engine_schedule/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Kernel: schedule→cancel→discard (free-list recycling path).
	r = testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := eng.After(1, fn)
			eng.Cancel(h)
			eng.Run(eng.Now())
		}
	})
	add("kernel/engine_schedule_cancel/ns_op", "time", float64(r.NsPerOp()))
	add("kernel/engine_schedule_cancel/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Live gate: the uncontended Acquire/Release hot path (gate
	// BenchmarkGateAcquireRelease, single-goroutine so the number is
	// the pure per-call overhead).
	g, err := gate.New(gate.Config{})
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk, err := g.Acquire(ctx)
			if err != nil {
				b.Fatal(err)
			}
			tk.Release(gate.Result{})
		}
	})
	add("gate/acquire_release/ns_op", "time", float64(r.NsPerOp()))
	add("gate/acquire_release/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Live gate under contention: the same uncontended-admission path
	// driven from N goroutines on N procs (gate
	// BenchmarkGateAcquireReleaseParallel at -cpu 2,4,8). On a 1-core
	// runner the goroutines timeslice, so ns/op is not a scaling
	// number there — but allocs/op must still be exactly 0, and a
	// gross slowdown (a lock sneaking back onto the fast path) still
	// trips the wide time tolerance.
	prev := runtime.GOMAXPROCS(0)
	for _, n := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(n)
		gp, err := gate.New(gate.Config{})
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return nil, err
		}
		r = testing.Benchmark(func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tk, err := gp.Acquire(ctx)
					if err != nil {
						b.Error(err)
						return
					}
					tk.Release(gate.Result{})
				}
			})
		})
		add(fmt.Sprintf("gate/acquire_release_parallel_cpu%d/ns_op", n), "time", float64(r.NsPerOp()))
		add(fmt.Sprintf("gate/acquire_release_parallel_cpu%d/allocs_op", n), "allocs", float64(r.AllocsPerOp()))
	}

	// Pool fast path: routing (one short mutexed pick) plus the member
	// gate's lock-free admission, 4 members round-robin on 4 procs.
	runtime.GOMAXPROCS(4)
	pl, err := gate.NewPool(gate.PoolConfig{Members: 4, Dispatch: "rr"})
	if err != nil {
		runtime.GOMAXPROCS(prev)
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tk, err := pl.Acquire(ctx)
				if err != nil {
					b.Error(err)
					return
				}
				tk.Release(gate.Result{})
			}
		})
	})
	runtime.GOMAXPROCS(prev)
	add("gate/pool_acquire_release_parallel_cpu4/ns_op", "time", float64(r.NsPerOp()))
	add("gate/pool_acquire_release_parallel_cpu4/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Live middleware: one fast-path request through gate.Middleware at
	// limit 64 over a reused writer stub (gate BenchmarkGateMiddleware).
	// The status writer rides in the pooled ticket slot, so a request
	// costs the middleware no allocation.
	gm, err := gate.New(gate.Config{Limit: 64})
	if err != nil {
		return nil, err
	}
	mh := gate.Middleware(gm, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	mw := &discardWriter{h: http.Header{}}
	mr := httptest.NewRequest(http.MethodGet, "/", nil)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mh.ServeHTTP(mw, mr)
		}
	})
	add("gate/middleware/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Live set-up: what a service pays before its first response — New,
	// Middleware and the first request through them (gate
	// BenchmarkGateSetup, the live benchmark workloads' set-up loop).
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := gate.New(gate.Config{Limit: 64, Policy: gate.FIFO})
			if err != nil {
				b.Fatal(err)
			}
			rec := httptest.NewRecorder()
			gate.Middleware(g, ok).ServeHTTP(rec, mr)
			if rec.Code != http.StatusOK {
				b.Fatalf("set-up request answered %d", rec.Code)
			}
		}
	})
	add("gate/setup/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Dispatch pick cost: the per-transaction routing decision at fleet
	// sizes 8 and 1000 for full-scan jsq versus sampled jsq-d. The
	// sampled path is what makes thousand-shard fleets tractable, so it
	// must stay allocation-free, and its N=1000 cost within 2x of its
	// N=8 cost (the scaling ratio metric carries a hand-tuned tolerance
	// of 1.0: it only fails when the ratio doubles, i.e. the pick cost
	// stops being flat in N).
	pickCost := func(policyName string, n int) (nsOp, allocsOp float64, err error) {
		p, err := cluster.NewPolicySeeded(policyName, 1)
		if err != nil {
			return 0, 0, err
		}
		loads := make([]cluster.Load, n)
		for i := range loads {
			loads[i] = cluster.Load{Backlog: (i * 7) % 13, Work: float64((i * 5) % 11), Speed: 1}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := p.Pick(loads, 0, 1)
				loads[j].Backlog++
				loads[(i+j)%n].Backlog--
			}
		})
		return float64(r.NsPerOp()), float64(r.AllocsPerOp()), nil
	}
	var sampledNs [2]float64
	for i, n := range []int{8, 1000} {
		ns, _, err := pickCost("jsq", n)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("dispatch_pick/jsq_n%d/ns_op", n), "time", ns)
		ns, allocs, err := pickCost("jsq-d:3", n)
		if err != nil {
			return nil, err
		}
		sampledNs[i] = ns
		add(fmt.Sprintf("dispatch_pick/jsq-d_n%d/ns_op", n), "time", ns)
		add(fmt.Sprintf("dispatch_pick/jsq-d_n%d/allocs_op", n), "allocs", allocs)
	}
	out = append(out, Metric{
		Name:      "dispatch_pick/jsq-d_n1000_vs_n8_ratio",
		Value:     sampledNs[1] / sampledNs[0],
		Kind:      "time",
		Tolerance: 1.0,
	})

	// DBMS model layers: once their free lists are warm, a lock
	// request on a cold key, a CPU burst and a disk I/O allocate
	// nothing, and so does a whole simulated transaction once the
	// frontend's records and the generator's profiles recycle (what
	// remains is mostly the lock table's map upkeep on cold keys).
	lockAllocs, cpuAllocs, diskAllocs := modelLayerAllocs()
	add("lockmgr/acquire_release_cold/allocs_op", "allocs", lockAllocs)
	add("cpusched/submit_complete/allocs_op", "allocs", cpuAllocs)
	add("disk/submit_complete/allocs_op", "allocs", diskAllocs)

	// Buffer pool: a hit on a fully-cached pool, which stays dense, and
	// an evicting miss on a full one, which has left the dense state.
	hitAllocs, evictAllocs := poolAllocs()
	add("bufferpool/cached_hit/allocs_op", "allocs", hitAllocs)
	add("bufferpool/evicting_access/allocs_op", "allocs", evictAllocs)

	// Frontend: one item submitted past its admission deadline, which
	// the dispatch sheds and delivers. Sheds are linked through the
	// items, so shedding allocates nothing.
	shedAllocs, err := shedDispatchAllocs()
	if err != nil {
		return nil, err
	}
	add("core/shed_dispatch/allocs_op", "allocs", shedAllocs)
	perTxn, err := closedRunAllocs()
	if err != nil {
		return nil, err
	}
	out = append(out, Metric{Name: "sim/closed_setup1/allocs_per_txn", Value: perTxn, Kind: "allocs", Tolerance: 0.05})

	// Figure summaries: deterministic given the seed, so drift means
	// the simulation's behavior changed, not the host.
	opts := experiments.RunOpts{Warmup: 20, Measure: 120, Seed: 1}
	fig7, err := experiments.Figure7()
	if err != nil {
		return nil, err
	}
	addFigure(&out, fig7)
	dispatch, err := experiments.DispatchFigure(3, 0.25, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, dispatch)
	slo, err := experiments.SLOFigure(3, 0, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, slo)
	churn, err := experiments.ChurnFigure(3, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, churn)
	autoscale, err := experiments.AutoscaleFigure(3, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, autoscale)
	fair, err := experiments.FairnessFigure(2, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, fair)
	return out, nil
}

// modelLayerAllocs measures allocations per operation of the DBMS
// model's layers in steady state: Begin, Acquire of a fresh (cold) key
// and Release; one CPU burst submitted and completed with three others
// resident; one disk I/O submitted and served behind a busy device.
func modelLayerAllocs() (lock, cpu, dsk float64) {
	r := testing.Benchmark(func(b *testing.B) {
		mgr := lockmgr.New(sim.NewEngine(), lockmgr.Config{OnAbort: func(lockmgr.TxnID, lockmgr.AbortReason) {}})
		txn := func(i int) {
			id := lockmgr.TxnID(i + 1)
			mgr.Begin(id, lockmgr.Low)
			mgr.Acquire(id, 1<<32+uint64(i), lockmgr.X, nil)
			mgr.Release(id)
		}
		for i := 0; i < 64; i++ {
			txn(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn(64 + i)
		}
	})
	lock = float64(r.AllocsPerOp())

	r = testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		c := cpusched.New(eng, 2)
		n := 0
		var done func()
		done = func() {
			n++
			c.Submit(0.001*float64(1+n%4), 1, done)
		}
		for i := 0; i < 4; i++ {
			done()
		}
		for i := 0; i < 64; i++ {
			eng.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
	cpu = float64(r.AllocsPerOp())

	r = testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		d := disk.NewDisk(eng, "d0")
		var done func()
		done = func() { d.Submit(0.01, done) }
		for i := 0; i < 4; i++ {
			done()
		}
		for i := 0; i < 64; i++ {
			eng.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
	dsk = float64(r.AllocsPerOp())
	return lock, cpu, dsk
}

// poolAllocs measures allocations per buffer-pool access: a hit on a
// pool filled with pages 0..4095 in order, as Prewarm fills a
// fully-cached pool, and a miss on a full pool cycled over one page
// more than it holds, so that every access evicts.
func poolAllocs() (hit, evict float64) {
	const capacity = 4096
	r := testing.Benchmark(func(b *testing.B) {
		p := bufferpool.New(capacity)
		for i := uint64(0); i < capacity; i++ {
			p.Access(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Access(uint64(i*37) % capacity)
		}
	})
	hit = float64(r.AllocsPerOp())

	r = testing.Benchmark(func(b *testing.B) {
		p := bufferpool.New(capacity)
		for i := uint64(0); i <= capacity; i++ {
			p.Access(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Access(uint64(i) % (capacity + 1))
		}
	})
	evict = float64(r.AllocsPerOp())
	return hit, evict
}

// shedDispatchAllocs measures allocations per dispatch-time shed: a
// reused item whose deadline has passed is submitted to an idle
// frontend, whose dispatch pops it, sheds it and runs its callbacks.
func shedDispatchAllocs() (float64, error) {
	eng := sim.NewEngine()
	fe := core.New(eng.Clock(), execNothing{}, 1, core.NewFIFO())
	eng.Run(1)
	it := &core.Item{Deadline: 0.5}
	shed := 0
	done := func(*core.Item) { shed++ }
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fe.Submit(it, done)
		}
	})
	if uint64(shed) != fe.Shed() || !it.WasShed() {
		return 0, fmt.Errorf("shed benchmark: %d callbacks for %d sheds", shed, fe.Shed())
	}
	return float64(r.AllocsPerOp()), nil
}

// execNothing is a Backend that never runs anything.
type execNothing struct{}

func (execNothing) Exec(*core.Item) {}

// closedRunAllocs measures heap allocations per commit of the paper's
// closed system (setup 1, MPL 10 FIFO, 100 clients, no think time)
// after 20 simulated seconds of warm-up, over the next 200: the cost
// of one simulated transaction with construction excluded.
func closedRunAllocs() (float64, error) {
	setup, err := workload.SetupByID(1)
	if err != nil {
		return 0, err
	}
	st, err := runner.NewStack(runner.Build{Setup: setup, MPL: 10, Seed: 1})
	if err != nil {
		return 0, err
	}
	workload.NewClosedDriver(st.Eng, st.FE, st.Gen, 100, nil).Start()
	st.Eng.Run(20)
	var m0, m1 runtime.MemStats
	c0 := st.DB.Stats().Committed
	runtime.ReadMemStats(&m0)
	st.Eng.Run(220)
	runtime.ReadMemStats(&m1)
	commits := st.DB.Stats().Committed - c0
	if commits == 0 {
		return 0, fmt.Errorf("closed setup-1 run committed nothing")
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(commits), nil
}

// addFigure folds each series of a figure into one tracked mean.
func addFigure(out *[]Metric, f *experiments.Figure) {
	for _, s := range f.Series {
		if len(s.Y) == 0 {
			continue
		}
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		*out = append(*out, Metric{
			Name:      fmt.Sprintf("%s/%s/mean", f.ID, sanitize(s.Name)),
			Value:     sum / float64(len(s.Y)),
			Kind:      "value",
			Tolerance: defaultTolerance("value"),
		})
	}
}

// sanitize makes a series name metric-friendly.
func sanitize(name string) string {
	r := strings.NewReplacer(" ", "_", "(", "", ")", "", "/", "-", ",", "")
	return r.Replace(name)
}

func readBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

func writeBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
