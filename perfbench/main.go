// Command perfbench is the repository benchmark. It drives the eventorder
// system from outside, through its public entry points only, on three
// workloads:
//
//	matrix-scale  all six relation matrices through eventorder.AnalyzeMatrix
//	              on gen.Barrier(6), gen.Barrier(7) and a seeded Theorem-1
//	              instance (closed loop, one client)
//	hard-decide   budgeted per-pair Analyzer.Decide queries on seeded
//	              Theorem-1/Theorem-3 reduction instances (closed loop, one
//	              client)
//	serve-mix     an open-loop request mix against an eventorderd child
//	              process with a write-ahead journal (fixed-rate ladder)
//
// Every answer is checked against an independent oracle, and the run fails
// (exit status 1) on any mismatch. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}: with -trace 0 the
// metrics are the end-to-end metrics, with -trace 1 the per-layer metrics of
// a traced run. The line before it carries the run's hygiene record (CPU
// count, GOMAXPROCS, Go version, commit, seed, budgets, ladder rates) and the
// exact work counts.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -workload matrix-scale|hard-decide|serve-mix [-seed 1]
//	          [-seconds 30] [-trace 0|1] [-workers N] [-conns N]
//	          [-eventorderd path] [-out dir] [-commit rev]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is the second seed, besides the default 1, on which every
// performance claim must also hold; tuning uses seed 1 only.
const heldOutSeed = 7

// config is one run's parameters.
type config struct {
	workload    string
	seed        int64
	dur         time.Duration
	trace       bool
	workers     int    // engine / server worker count, ≤ NumCPU
	conns       int    // serve-mix client connections, ≤ NumCPU
	eventorderd string // serve-mix server binary
	testdata    string // serve-mix program directory
	outDir      string // span dumps and server state
	// setupProcs is how many processes time a library workload's set-up;
	// below 2, only this one (tests, whose executable is the test binary).
	setupProcs int
}

// result is what one workload run reports.
type result struct {
	attempted  int
	failed     int
	mismatches []string
	e2e        map[string]float64 // end-to-end metrics (untraced)
	layer      map[string]float64 // per-layer metrics (traced run only)
	info       map[string]any     // hygiene, percentile choice, exact counts
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// mismatch records an oracle disagreement; any mismatch fails the run.
func (r *result) mismatch(format string, args ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
	r.failed++
}

// Metric units, by name. Every end-to-end and per-layer metric the
// benchmark emits is listed here; a workload that does not exercise a layer
// reports it as 0.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_tail_ms":  "ms",
	"throughput_ops_s": "1/s",
	"sustained_rps":    "1/s",
	"states_per_s":     "1/s",
	"decided_frac":     "frac",
	"peak_rss_mb":      "MB",
}

var layerUnits = map[string]string{
	"core.forward_ms":               "ms",
	"core.backward_ms":              "ms",
	"core.unattributed_ms":          "ms",
	"core.span_cover_frac":          "frac",
	"core.states":                   "count",
	"core.edges":                    "count",
	"core.edges_per_state":          "ratio",
	"core.allocs_per_state":         "ratio",
	"core.gc_cycles":                "count",
	"statetab.memo_bytes":           "B",
	"statetab.memo_load":            "frac",
	"statetab.memo_grows":           "count",
	"symm.classes":                  "count",
	"symm.collapse_frac":            "frac",
	"core.decide_ms":                "ms",
	"core.decide_states":            "count",
	"core.memo_hit_frac":            "frac",
	"core.decided_queries":          "count",
	"plan.build_ms":                 "ms",
	"plan.residue_frac":             "frac",
	"plan.residue_pairs":            "count",
	"plan.total_pairs":              "count",
	"plan.frac.static":              "frac",
	"plan.frac.observed":            "frac",
	"plan.frac.dag":                 "frac",
	"lang.parse_ms":                 "ms",
	"interp.run_ms":                 "ms",
	"traceio.load_ms":               "ms",
	"traceio.bytes":                 "B",
	"service.resolve_ms":            "ms",
	"service.queue_wait_ms.fast":    "ms",
	"service.queue_wait_ms.heavy":   "ms",
	"service.lane_frac.cache":       "frac",
	"service.lane_frac.fast":        "frac",
	"service.lane_frac.heavy":       "frac",
	"service.cache_hit_frac":        "frac",
	"service.throttled_frac":        "frac",
	"service.shed_frac":             "frac",
	"service.partial_frac":          "frac",
	"service.engine_ms":             "ms",
	"service.unattributed_ms":       "ms",
	"service.resp_bytes":            "B",
	"journal.accept_ms":             "ms",
	"journal.records":               "count",
	"journal.replay_records":        "count",
	"store.rehydrated":              "count",
	"reduction.build_ms":            "ms",
	"sat.solve_ms":                  "ms",
	"core.new_ms":                   "ms",
	"loadgen.late_p99_ms":           "ms",
	"loadgen.sent":                  "count",
	"trace.span_cover_frac":         "frac",
	"trace.overhead_frac":           "frac",
	"trace.untraced_latency_p50_ms": "ms",
	"trace.traced_latency_p50_ms":   "ms",
}

// setupOnly times just a library workload's set-up, in a child process of
// setupAcrossProcesses.
var setupOnly = map[string]func(seed int64) (float64, error){
	"matrix-scale": func(seed int64) (float64, error) {
		su, _, err := matrixSetup(seed)
		return su.secs, err
	},
	"hard-decide": func(seed int64) (float64, error) {
		su, _, err := hardDecideSetup(seed)
		return su.secs, err
	},
}

// defaultSetupProcs is how many processes time a library workload's
// set-up. A process's median set-up time sits up to a fifth above or below
// the next process's (memory layout, map hash seeds), so setup_s is the
// median over processes.
const defaultSetupProcs = 9

// setupAcrossProcesses returns the median set-up time over cfg.setupProcs
// processes: this one, which measured own, and fresh children that run
// only the set-up.
func setupAcrossProcesses(cfg config, own float64) (float64, error) {
	secs := []float64{own}
	if cfg.setupProcs > 1 {
		exe, err := os.Executable()
		if err != nil {
			return 0, err
		}
		for i := 1; i < cfg.setupProcs; i++ {
			out, err := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10), "-setup-only").Output()
			if err != nil {
				return 0, fmt.Errorf("set-up process: %w", err)
			}
			s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
			if err != nil {
				return 0, fmt.Errorf("set-up process: %w", err)
			}
			secs = append(secs, s)
		}
	}
	return median(secs), nil
}

var workloads = map[string]func(cfg config) (*result, error){
	"matrix-scale": runMatrixScale,
	"hard-decide":  runHardDecide,
	"serve-mix":    runServeMix,
}

func main() {
	cfg := config{}
	var seconds, traceFlag int
	var commit string
	flag.StringVar(&cfg.workload, "workload", "", "matrix-scale, hard-decide or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&cfg.workers, "workers", 0, "engine and server workers (0 = GOMAXPROCS); refused above NumCPU")
	flag.IntVar(&cfg.conns, "conns", 0, "serve-mix client connections (0 = NumCPU); refused above NumCPU")
	flag.StringVar(&cfg.eventorderd, "eventorderd", filepath.Join(".bench_build", "bin", "eventorderd"), "eventorderd binary for serve-mix")
	flag.StringVar(&cfg.testdata, "testdata", "testdata", "directory of .evo programs for serve-mix")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and server state")
	flag.StringVar(&commit, "commit", "unknown", "commit under test, recorded in the result")
	setupOnlyFlag := flag.Bool("setup-only", false, "time a library workload's set-up only and print the seconds")
	flag.Parse()
	cfg.setupProcs = defaultSetupProcs

	if *setupOnlyFlag {
		fn, ok := setupOnly[cfg.workload]
		if !ok {
			fatalf("-setup-only: no set-up to time for -workload %q", cfg.workload)
		}
		secs, err := fn(cfg.seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(secs)
		return
	}

	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown -workload %q (want matrix-scale, hard-decide or serve-mix)", cfg.workload)
	}
	if seconds < 0 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("bad -seconds %d or -trace %d", seconds, traceFlag)
	}
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	if err := checkHygiene(&cfg); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res.info["hygiene"] = hygiene(cfg, commit)
	emit(cfg, res)
	if len(res.mismatches) > 0 {
		os.Exit(1)
	}
}

// checkHygiene fills defaults and refuses any worker, thread or connection
// count above the machine's CPU count: oversubscribed numbers measure the
// scheduler, not the system.
func checkHygiene(cfg *config) error {
	ncpu := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > ncpu {
		return fmt.Errorf("GOMAXPROCS=%d exceeds NumCPU=%d", p, ncpu)
	}
	if cfg.workers == 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.conns == 0 {
		cfg.conns = ncpu
	}
	if cfg.workers < 1 || cfg.workers > ncpu {
		return fmt.Errorf("-workers %d outside 1..NumCPU=%d", cfg.workers, ncpu)
	}
	if cfg.conns < 1 || cfg.conns > ncpu {
		return fmt.Errorf("-conns %d outside 1..NumCPU=%d", cfg.conns, ncpu)
	}
	return nil
}

func hygiene(cfg config, commit string) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"heldOut":    heldOutSeed,
		"seconds":    cfg.dur.Seconds(),
		"trace":      cfg.trace,
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    cfg.workers,
		"conns":      cfg.conns,
		"goVersion":  runtime.Version(),
		"commit":     commit,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints a readable metric table to stderr, then the report line and
// the result line to stdout.
func emit(cfg config, res *result) {
	values, units := res.e2e, e2eUnits
	if cfg.trace {
		values, units = res.layer, layerUnits
	}
	metrics := map[string]metricValue{}
	for name, unit := range units {
		metrics[name] = metricValue{Value: values[name], Unit: unit}
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	for _, m := range res.mismatches {
		fmt.Fprintf(os.Stderr, "MISMATCH: %s\n", m)
	}
	if res.attempted > 0 {
		res.info["fail_frac"] = float64(res.failed) / float64(res.attempted)
	}
	report, err := json.Marshal(map[string]any{"report": res.info})
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	fmt.Println(string(report))
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.mismatches) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
