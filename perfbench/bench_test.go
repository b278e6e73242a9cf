package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// eventorderdBin is built once by TestMain for the serve-mix pass.
var eventorderdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	eventorderdBin = filepath.Join(dir, "eventorderd")
	build := exec.Command("go", "build", "-o", eventorderdBin, "eventorder/cmd/eventorderd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, workload string, seed int64, dur time.Duration, trace bool) config {
	cfg := config{
		workload:    workload,
		seed:        seed,
		dur:         dur,
		trace:       trace,
		eventorderd: eventorderdBin,
		testdata:    filepath.Join("..", "testdata"),
		outDir:      t.TempDir(),
	}
	if err := checkHygiene(&cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runClean(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if len(res.mismatches) > 0 || res.failed > 0 {
		t.Fatalf("%s seed %d: %d failed, mismatches %v", cfg.workload, cfg.seed, res.failed, res.mismatches)
	}
	if res.attempted == 0 {
		t.Fatalf("%s: nothing attempted", cfg.workload)
	}
	return res
}

// Two same-seed traced passes must report identical work counts, so a
// later change can cite counts next to wall time.
func TestSameSeedCountsRepeat(t *testing.T) {
	for _, w := range []string{"matrix-scale", "hard-decide"} {
		t.Run(w, func(t *testing.T) {
			a := runClean(t, testConfig(t, w, 1, 0, true))
			b := runClean(t, testConfig(t, w, 1, 0, true))
			if !reflect.DeepEqual(a.info["counts"], b.info["counts"]) {
				t.Fatalf("counts differ between same-seed runs:\n%v\n%v", a.info["counts"], b.info["counts"])
			}
			for _, name := range []string{"core.states", "core.edges"} {
				if a.layer[name] == 0 || a.layer[name] != b.layer[name] {
					t.Fatalf("%s: %v vs %v", name, a.layer[name], b.layer[name])
				}
			}
		})
	}
}

// One short pass of every workload at the held-out seed, checked against
// its oracle, with every end-to-end metric reported.
func TestHeldOutSeed(t *testing.T) {
	durs := map[string]time.Duration{"matrix-scale": 0, "hard-decide": 0, "serve-mix": 1500 * time.Millisecond}
	for w, dur := range durs {
		t.Run(w, func(t *testing.T) {
			res := runClean(t, testConfig(t, w, heldOutSeed, dur, false))
			for name := range e2eUnits {
				if _, ok := res.e2e[name]; !ok {
					t.Errorf("metric %s missing", name)
				}
			}
		})
	}
}

func TestRefusesOversubscription(t *testing.T) {
	cfg := config{workers: 1 << 20}
	if err := checkHygiene(&cfg); err == nil {
		t.Fatal("a worker count above NumCPU was accepted")
	}
}

func TestTailPercentile(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Millisecond
	}
	l := summarize(s, 99.9)
	if l.p50 != 500 || l.tail != 999 || beyond(l.n, l.tailPct) != 1 {
		t.Fatalf("p50 %v, p99.9 %v, %d beyond", l.p50, l.tail, beyond(l.n, l.tailPct))
	}
	// The rank must not round up on float error: 99.9% of 10000 is 9990.
	if got := beyond(10000, 99.9); got != 10 {
		t.Fatalf("beyond(10000, 99.9) = %d, want 10", got)
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark emits, with
// the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []metric
		units  map[string]string
	}{{spec.EndToEnd, e2eUnits}, {spec.PerLayer, layerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if c.units[m.Name] != m.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q emitted", m.Name, m.Unit, c.units[m.Name])
			}
		}
	}
}
