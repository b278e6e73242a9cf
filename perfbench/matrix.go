package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"eventorder"
	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/model"
	"eventorder/internal/plan"
	"eventorder/internal/reduction"
	"eventorder/internal/sat"
)

type matrixInput struct {
	name string
	x    *model.Execution
}

// matrixInputs generates the matrix-scale inputs: two fixed barriers and
// one seeded Theorem-1 instance. It also returns the reduction's build time.
func matrixInputs(seed int64) ([]matrixInput, time.Duration, error) {
	var in []matrixInput
	for _, n := range []int{6, 7} {
		x, err := gen.Barrier(n)
		if err != nil {
			return nil, 0, err
		}
		in = append(in, matrixInput{fmt.Sprintf("barrier%d", n), x})
	}
	f := theorem1Formula(seed)
	t0 := time.Now()
	inst, err := reduction.Build(f, reduction.StyleSemaphore, core.Options{})
	if err != nil {
		return nil, 0, err
	}
	return append(in, matrixInput{"theorem1", inst.X}), time.Since(t0), nil
}

// theorem1Formula draws seeded random 3CNF formulas (n=3, m=2) until one has
// exactly one variable whose two occurrences share a sign. The reduction's
// state count depends only on that number (0, 1, 2 or 3 same-signed
// variables give about 0.29M, 0.51M, 0.90M and more states), so holding it
// fixed holds the input size fixed while the seed still picks the formula.
func theorem1Formula(seed int64) *sat.Formula {
	rng := rand.New(rand.NewSource(seed))
	for {
		f := sat.Random3CNF(rng, 3, 2)
		if sameSignVars(f) == 1 {
			return f
		}
	}
}

// sameSignVars counts the variables all of whose occurrences in f carry the
// same sign.
func sameSignVars(f *sat.Formula) int {
	pos, neg := map[int]bool{}, map[int]bool{}
	for _, c := range f.Clauses {
		for _, l := range c {
			if l > 0 {
				pos[l] = true
			} else {
				neg[-l] = true
			}
		}
	}
	n := 0
	for v := 1; v <= f.NumVars; v++ {
		if pos[v] != neg[v] {
			n++
		}
	}
	return n
}

// matrixSetup is the matrix-scale set-up, input generation plus core.New on
// every input, timed by timeSetup.
func matrixSetup(seed int64) (su setup, inputs []matrixInput, err error) {
	var buildMs, newMs []float64
	su.secs, err = timeSetup(func() error {
		in, build, err := matrixInputs(seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, m := range in {
			if _, err := core.New(m.x, core.Options{}); err != nil {
				return err
			}
		}
		buildMs = append(buildMs, msOf(build))
		newMs = append(newMs, msOf(time.Since(t0))/float64(len(in)))
		inputs = in
		return nil
	})
	su.buildMs, su.newMs = median(buildMs), median(newMs)
	return su, inputs, err
}

// matrixDigest hashes every relation of a matrix result in Table 1 order.
func matrixDigest(m *core.MatrixResult) string {
	h := sha256.New()
	for _, k := range m.Kinds {
		fmt.Fprintf(h, "%s:", k)
		for _, p := range m.Relations[k].Pairs() {
			fmt.Fprintf(h, "%d,%d;", p[0], p[1])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verdictCounts returns the decided and requested verdict counts of a
// (possibly partial) matrix result.
func verdictCounts(m *core.MatrixResult) (decided, requested int) {
	requested = len(m.Kinds) * m.TotalPairs()
	decided = requested
	for _, k := range m.Kinds {
		if u := m.Undecided[k]; u != nil {
			decided -= u.Count()
		}
	}
	return decided, requested
}

// matrixLoop is the measured state of one matrix-scale loop.
type matrixLoop struct {
	lat               []time.Duration
	passOps, passRate []float64 // per whole pass: ops and states per second of op time
	decided, requests int
	digests           []string // per op; op i ran input i%len(inputs)

	// Traced runs only.
	mallocs, gcs uint64
	pass         []core.Stats // first pass, per input
	plans        []*plan.Plan // first pass, per input
	memoPeak     core.Stats
	tracedStates int64 // all traced ops
	passDecided  int   // first pass
}

// runMatrixOps runs AnalyzeMatrix round-robin over the inputs in whole
// passes until dur has passed, so every input weighs the same in the
// percentiles. With a tracer, each op is the call sequence AnalyzeMatrix
// makes (plan.Build, core.New, Analyzer.Matrix seeded with the plan), timed
// per layer.
func runMatrixOps(ctx context.Context, cfg config, inputs []matrixInput, dur time.Duration, tr *tracer) (*matrixLoop, error) {
	lp := &matrixLoop{}
	// One untimed pass first, so heap growth and cold caches are not timed.
	for _, in := range inputs {
		if _, err := eventorder.AnalyzeMatrix(ctx, in.x, nil, core.Options{}, core.MatrixOpts{Workers: cfg.workers}); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	runtime.GC()
	start := time.Now()
	var passTime time.Duration
	var passStates int64
	for i := 0; i%len(inputs) != 0 || time.Since(start) < dur || i == 0; i++ {
		in := inputs[i%len(inputs)]
		var res *core.MatrixResult
		var err error
		t0 := time.Now()
		if tr == nil {
			res, err = eventorder.AnalyzeMatrix(ctx, in.x, nil, core.Options{}, core.MatrixOpts{Workers: cfg.workers})
		} else {
			res, err = lp.tracedOp(ctx, cfg, in, int64(i), i < len(inputs), tr)
		}
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		lp.lat = append(lp.lat, d)
		passTime += d
		passStates += res.Expanded
		if i%len(inputs) == len(inputs)-1 {
			lp.passOps = append(lp.passOps, float64(len(inputs))/passTime.Seconds())
			lp.passRate = append(lp.passRate, float64(passStates)/passTime.Seconds())
			passTime, passStates = 0, 0
		}
		dec, req := verdictCounts(res)
		lp.decided += dec
		lp.requests += req
		if i < len(inputs) {
			lp.passDecided += dec
		}
		lp.digests = append(lp.digests, matrixDigest(res))
	}
	return lp, nil
}

// tracedOp runs one op through plan.Analyze, the pipeline AnalyzeMatrix
// wraps, so that it can keep the plan and the analyzer's statistics; the
// OnPhase plan and sweep timings become child spans of the op.
func (lp *matrixLoop) tracedOp(ctx context.Context, cfg config, in matrixInput, op int64, firstPass bool, tr *tracer) (*core.MatrixResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.begin("matrix.op", op, -1)
	res, err := plan.Analyze(ctx, in.x, nil, core.Options{}, core.MatrixOpts{
		Workers: cfg.workers,
		OnPhase: func(phase string, d time.Duration) { tr.record(phaseSpan[phase], op, root, time.Now(), d) },
	})
	tr.end(root)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	lp.mallocs += after.Mallocs - before.Mallocs
	lp.gcs += uint64(after.NumGC - before.NumGC)
	if firstPass {
		lp.pass = append(lp.pass, res.Stats)
		lp.plans = append(lp.plans, res.Plan)
	}
	if res.Stats.MemoBytes > lp.memoPeak.MemoBytes {
		lp.memoPeak = res.Stats
	}
	lp.tracedStates += res.Stats.Nodes
	return res.Matrix, nil
}

// phaseSpan names the span of each MatrixOpts.OnPhase phase.
var phaseSpan = map[string]string{"plan": "plan.build", "forward": "core.forward", "backward": "core.backward"}

func runMatrixScale(cfg config) (*result, error) {
	ctx := context.Background()
	res := newResult()

	su, inputs, err := matrixSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	if res.e2e["setup_s"], err = setupAcrossProcesses(cfg, su.secs); err != nil {
		return nil, err
	}

	var tr *tracer
	dur := cfg.dur
	var untraced *matrixLoop
	if cfg.trace {
		// Half the time untraced, half traced: the difference is the
		// tracing overhead.
		dur /= 2
		if untraced, err = runMatrixOps(ctx, cfg, inputs, dur, nil); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	lp, err := runMatrixOps(ctx, cfg, inputs, dur, tr)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	lat := summarize(lp.lat, matrixTailPct)
	res.attempted = len(lp.lat)
	if untraced != nil {
		res.attempted += len(untraced.lat)
	}
	res.e2e["latency_p50_ms"] = lat.p50
	res.e2e["latency_tail_ms"] = lat.tail
	// Rates are medians over whole passes, which keeps a burst of host
	// noise inside one pass from moving them.
	res.e2e["throughput_ops_s"] = median(lp.passOps)
	// One closed-loop client: the highest rate it sustains is its
	// completion rate.
	res.e2e["sustained_rps"] = res.e2e["throughput_ops_s"]
	res.e2e["states_per_s"] = median(lp.passRate)
	res.e2e["decided_frac"] = ratio(float64(lp.decided), float64(lp.requests))
	res.e2e["peak_rss_mb"] = rss
	res.info["latency"] = lat.info()
	res.info["loop"] = "closed, 1 client"
	res.info["inputs"] = []string{inputs[0].name, inputs[1].name, inputs[2].name}

	// Oracle, outside the timed loop and after the memory reading: an
	// exact-only, POR-off, symmetry-off single-worker reference per input.
	ref := make([]string, len(inputs))
	counts := map[string]any{}
	for i, in := range inputs {
		m, err := eventorder.AnalyzeMatrix(ctx, in.x, nil,
			core.Options{DisablePOR: true, DisableSymm: true},
			core.MatrixOpts{Workers: 1, Tiers: -1, DisablePOR: true, DisableSymm: true})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", in.name, err)
		}
		if !m.Complete {
			return nil, fmt.Errorf("reference %s incomplete", in.name)
		}
		ref[i] = matrixDigest(m)
		counts[in.name+".states"] = m.Expanded
	}
	for i, d := range lp.digests {
		if d != ref[i%len(inputs)] {
			res.mismatch("op %d (%s): matrix digest %s, reference %s", i, inputs[i%len(inputs)].name, d[:12], ref[i%len(inputs)][:12])
		}
	}
	if untraced != nil {
		for i, d := range untraced.digests {
			if d != ref[i%len(inputs)] {
				res.mismatch("untraced op %d (%s): matrix digest differs from reference", i, inputs[i%len(inputs)].name)
			}
		}
	}
	res.info["reference_counts"] = counts

	if tr != nil {
		matrixLayers(res, lp, untraced, tr, su)
		if err := tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-matrix-scale-%d.json", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// matrixLayers fills the per-layer metrics of a traced matrix-scale run.
func matrixLayers(res *result, lp, untraced *matrixLoop, tr *tracer, su setup) {
	ops := float64(len(lp.lat))
	self := tr.selfTimes()
	sum := map[string]time.Duration{}
	for _, s := range tr.spans {
		sum[s.Name] += s.End - s.Start
	}
	L := res.layer
	L["core.forward_ms"] = msOf(sum["core.forward"]) / ops
	L["core.backward_ms"] = msOf(sum["core.backward"]) / ops
	L["core.new_ms"] = su.newMs
	L["plan.build_ms"] = msOf(sum["plan.build"]) / ops
	// Op wall time outside the plan and the two sweeps: core.New, the
	// memo merge and result assembly.
	L["core.unattributed_ms"] = msOf(self["matrix.op"]) / ops
	// The share of the engine's time (op wall minus plan) the sweeps cover.
	L["core.span_cover_frac"] = ratio(float64(sum["core.forward"]+sum["core.backward"]),
		float64(sum["matrix.op"]-sum["plan.build"]))

	var states, edges, collapses, grows int64
	var classes int
	for _, st := range lp.pass {
		states += st.Nodes
		edges += st.Edges
		collapses += st.SymmCollapses
		grows += st.MemoGrows
		classes += st.SymmClasses
	}
	L["core.states"] = float64(states)
	L["core.edges"] = float64(edges)
	L["core.edges_per_state"] = ratio(float64(edges), float64(states))
	L["core.allocs_per_state"] = ratio(float64(lp.mallocs), float64(lp.tracedStates))
	L["core.gc_cycles"] = float64(lp.gcs) / ops
	L["statetab.memo_bytes"] = float64(lp.memoPeak.MemoBytes)
	L["statetab.memo_load"] = lp.memoPeak.MemoLoad
	L["statetab.memo_grows"] = float64(grows)
	L["symm.classes"] = float64(classes)
	L["symm.collapse_frac"] = ratio(float64(collapses), float64(states))

	var total, residue int
	tierPairs := map[plan.Tier]int{}
	for _, p := range lp.plans {
		total += p.TotalPairs
		residue += p.Residue
		for _, t := range p.Tiers {
			tierPairs[t.Tier] += t.PairsDecided
		}
	}
	L["plan.residue_pairs"] = float64(residue)
	L["plan.total_pairs"] = float64(total)
	L["plan.residue_frac"] = ratio(float64(residue), float64(total))
	L["plan.frac.static"] = ratio(float64(tierPairs[plan.TierStatic]), float64(total))
	L["plan.frac.observed"] = ratio(float64(tierPairs[plan.TierObserved]), float64(total))
	L["plan.frac.dag"] = ratio(float64(tierPairs[plan.TierDAG]), float64(total))
	L["reduction.build_ms"] = su.buildMs
	L["core.decided_queries"] = float64(lp.passDecided)

	tracingLayers(res, tr, summarize(untraced.lat, matrixTailPct).p50, summarize(lp.lat, matrixTailPct).p50)
	res.info["counts"] = map[string]any{
		"core.states": states, "core.edges": edges,
		"plan.residue_pairs": residue, "plan.total_pairs": total,
		"decided_verdicts": lp.passDecided,
	}
}

// tracingLayers adds the span-coverage share and the tracing overhead.
func tracingLayers(res *result, tr *tracer, untracedP50, tracedP50 float64) {
	res.layer["trace.span_cover_frac"] = tr.coverFrac()
	res.layer["trace.untraced_latency_p50_ms"] = untracedP50
	res.layer["trace.traced_latency_p50_ms"] = tracedP50
	res.layer["trace.overhead_frac"] = ratio(tracedP50-untracedP50, untracedP50)
}
