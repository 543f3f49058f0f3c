// Command benchrunner regenerates the paper's tables and figures.
//
// Each experiment id corresponds to one table or figure of the
// evaluation; see DESIGN.md for the index. Sweep points fan out across
// a worker pool (-workers, default GOMAXPROCS); results are identical
// to a sequential run, only faster. Output is an aligned text table by
// default, CSV with -csv, or a machine-readable summary with -json.
//
// Examples:
//
//	benchrunner -exp fig7                 # analytic, instant
//	benchrunner -exp fig2 -measure 300    # simulated throughput sweep
//	benchrunner -exp fig11 -loss 0.05
//	benchrunner -exp dispatch -slow 0.25  # sharded dispatch policies
//	benchrunner -exp fig2 -workers 1      # sequential reference run
//	benchrunner -exp all -json bench.json # everything + JSON summary
//	benchrunner -exp fig2 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"extsched/internal/experiments"
	"extsched/internal/profile"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment: fig2 fig3 fig4 fig5 fig7 fig10 fig11 fig12 fig13 rt-open surge dispatch slo churn autoscale fairness c2 controller controller-ablation all")
		slow     = flag.Float64("slow", 0.25, "slow shard's relative speed for the dispatch experiment")
		sloP95   = flag.Float64("slo-target", 0, "high-class p95 target in seconds for the slo experiment (0 = auto from baseline)")
		loss     = flag.Float64("loss", 0.05, "throughput-loss threshold for fig11")
		util     = flag.Float64("util", 0.7, "open-system utilization for rt-open")
		setup    = flag.Int("setup", 3, "setup id for rt-open")
		warmup   = flag.Float64("warmup", 0, "override warmup sim-seconds (0 = auto)")
		measure  = flag.Float64("measure", 0, "override measured sim-seconds (0 = auto)")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
		csv      = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		chart    = flag.Bool("chart", false, "render an ASCII chart instead of a table")
		outdir   = flag.String("outdir", "", "also write each figure as CSV into this directory")
		jsonPath = flag.String("json", "", "write a BENCH_*.json-style machine-readable summary to this file (\"-\" for stdout)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopProfile, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(1)
	}
	// exit ends the profiles before leaving: os.Exit skips deferred
	// calls.
	exit := func(code int) {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}
	experiments.DefaultWorkers = *workers
	// First SIGINT/SIGTERM cancels the sweep context: running points
	// finish, queued points are skipped, and the run exits cleanly. A
	// second signal kills the process (signal.NotifyContext restores
	// default handling once the context is done).
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()
	opts := experiments.RunOpts{Warmup: *warmup, Measure: *measure, Seed: *seed, Ctx: ctx}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig2", "fig3", "fig4", "fig5", "fig7", "fig10", "c2",
			"rt-open", "fig11", "fig12", "fig13", "controller"}
	}
	summary := benchSummary{
		Workers:    experiments.EffectiveWorkers(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
	}
	// With -json - the summary owns stdout; human tables move to
	// stderr so the JSON stays machine-readable in a pipe.
	tableOut := io.Writer(os.Stdout)
	if *jsonPath == "-" {
		tableOut = os.Stderr
	}
	// A per-experiment failure must not vanish the whole -json summary:
	// the experiments that did run are written out (with the failure
	// recorded next to them) and the exit code stays nonzero, so a CI
	// artifact is never silently empty.
	writeOut := func(code int) {
		if *jsonPath != "" {
			if err := writeSummary(*jsonPath, summary); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}
		exit(code)
	}
	exitCode := 0
	for _, id := range ids {
		start := time.Now()
		fig, err := run(id, *loss, *util, *setup, *slow, *sloP95, opts)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: interrupted, exiting\n", id)
			summary.Failures = append(summary.Failures, experimentFailure{ID: id, Error: "interrupted"})
			writeOut(130)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", id, err)
			summary.Failures = append(summary.Failures, experimentFailure{ID: id, Error: err.Error()})
			exitCode = 1
			continue
		}
		elapsed := time.Since(start)
		summary.Experiments = append(summary.Experiments, experimentSummary{
			ID:       fig.ID,
			Title:    fig.Title,
			WallSecs: elapsed.Seconds(),
			Series:   summarizeSeries(fig),
			Notes:    fig.Notes,
		})
		switch {
		case *csv:
			fmt.Fprint(tableOut, fig.CSV())
		case *chart:
			fmt.Fprint(tableOut, fig.Chart(72, 20))
		default:
			fmt.Fprint(tableOut, fig.Format())
		}
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
				exit(1)
			}
			path := filepath.Join(*outdir, sanitize(fig.ID)+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
				exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		fmt.Fprintln(tableOut)
	}
	writeOut(exitCode)
}

// benchSummary is the -json output: one record per experiment with its
// wall-clock cost and the reproduced series, so the perf trajectory of
// the repo is machine-readable across PRs (BENCH_*.json convention).
type benchSummary struct {
	Workers     int                 `json:"workers"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Seed        uint64              `json:"seed"`
	Experiments []experimentSummary `json:"experiments"`
	// Failures lists the experiments that errored; a summary carrying
	// any is partial and the process exited nonzero.
	Failures []experimentFailure `json:"failures,omitempty"`
}

type experimentFailure struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

type experimentSummary struct {
	ID       string          `json:"id"`
	Title    string          `json:"title"`
	WallSecs float64         `json:"wall_secs"`
	Series   []seriesSummary `json:"series"`
	Notes    []string        `json:"notes,omitempty"`
}

type seriesSummary struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

func summarizeSeries(fig *experiments.Figure) []seriesSummary {
	out := make([]seriesSummary, 0, len(fig.Series))
	for _, s := range fig.Series {
		out = append(out, seriesSummary{Name: s.Name, X: s.X, Y: s.Y})
	}
	return out
}

func writeSummary(path string, s benchSummary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sanitize makes a figure id filesystem-friendly.
func sanitize(id string) string {
	r := strings.NewReplacer("@", "-at-", "%", "pct", "/", "-", " ", "_")
	return r.Replace(id)
}

func run(id string, loss, util float64, setupID int, slow, sloTarget float64, opts experiments.RunOpts) (*experiments.Figure, error) {
	switch id {
	case "dispatch":
		return experiments.DispatchFigure(setupID, slow, opts)
	case "slo":
		return experiments.SLOFigure(setupID, sloTarget, opts)
	case "churn":
		return experiments.ChurnFigure(setupID, opts)
	case "autoscale":
		return experiments.AutoscaleFigure(setupID, opts)
	case "fairness":
		return experiments.FairnessFigure(setupID, opts)
	case "fig2":
		return experiments.Figure2(opts)
	case "fig3":
		return experiments.Figure3(opts)
	case "fig4":
		return experiments.Figure4(opts)
	case "fig5":
		return experiments.Figure5(opts)
	case "fig7":
		return experiments.Figure7()
	case "fig10":
		return experiments.Figure10()
	case "fig11":
		return experiments.Figure11(loss, nil, opts)
	case "fig12":
		return experiments.FigureInternal(1, opts)
	case "fig13":
		return experiments.FigureInternal(3, opts)
	case "rt-open":
		return experiments.Section32RT(setupID, util, []int{1, 2, 4, 6, 8, 10, 15, 20, 30}, opts)
	case "surge":
		return experiments.SurgeFigure(setupID, loss, opts)
	case "rt-summary":
		return experiments.Section32Summary(0.1, opts)
	case "c2":
		return experiments.C2Figure(200000, opts.Seed)
	case "controller":
		return experiments.ControllerFigure(nil, loss, true, opts)
	case "controller-ablation":
		return experiments.ControllerFigure(nil, loss, false, opts)
	case "ablate-groupcommit":
		return experiments.GroupCommitAblation(setupID, []int{1, 2, 5, 10, 20, 40}, opts)
	case "ablate-pow":
		return experiments.POWAblation(opts)
	case "ablate-policy":
		return experiments.PolicyComparison(setupID, 3, opts)
	case "ablate-admission":
		return experiments.AdmissionComparison(setupID, 5, 20, 0.9, opts)
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}
