// Command perfbench is the repository benchmark: it generates one
// workload's inputs from a seed, drives the rangereach library and its
// rrserve handler through their public entry points, checks every
// answer against an independent oracle, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer ledger) as one JSON line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload engine-sweep --seed 1 --seconds 20 --trace 0
//
// README.md explains the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the synthetic network size: 1 on the command
	// line, tiny in the self-tests.
	scale float64
	// workdir receives the generated network text file, the index image
	// and, on traced runs, the span file.
	workdir string

	// flipExpected, when ≥ 0, inverts that oracle answer before the run:
	// the self-tests use it to prove a wrong answer fails the run.
	flipExpected int
	// dropReplayOp, when ≥ 0, leaves that acknowledged update out of the
	// churn replay: the self-tests use it to prove the parity check trips.
	dropReplayOp int
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	// wrong counts answers that disagreed with the oracle; any wrong
	// answer fails the run.
	wrong   int64
	metrics map[string]float64
	// notes are human-readable lines for standard error.
	notes []string
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg config, o *outcome) error

var workloads = map[string]workloadFunc{
	"engine-sweep": runEngineSweep,
	"serve-zipf":   runServeZipf,
	"update-churn": runUpdateChurn,
}

// metricJSON is one printed metric.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	cfg := config{scale: 1, workdir: filepath.Join(".bench_build", "perfbench-run"), flipExpected: -1, dropReplayOp: -1}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: engine-sweep, serve-zipf or update-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced ledger and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles the result line.
func run(cfg config) (*resultJSON, error) {
	wf, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	// Every workload runs with GOMAXPROCS at the CPU count, whatever the
	// environment sets.
	runtime.GOMAXPROCS(runtime.NumCPU())

	o := &outcome{metrics: map[string]float64{}}
	start := time.Now()
	if err := wf(cfg, o); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%v scale=%g gomaxprocs=%d wall=%.1fs\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, runtime.GOMAXPROCS(0), time.Since(start).Seconds())
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	errFrac := 0.0
	if o.attempted > 0 {
		errFrac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d error_frac=%.6f wrong_answers=%d\n",
		o.attempted, o.failed, errFrac, o.wrong)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &resultJSON{
		Correct:   o.wrong == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			if !notApplicable(cfg.workload, d.name) {
				missing = append(missing, d.name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s did not measure %s", cfg.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operations", cfg.workload)
	}
	return res, nil
}
