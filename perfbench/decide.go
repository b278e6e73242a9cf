package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/reduction"
	"eventorder/internal/sat"
)

// decideBudget is the node budget (Options.MaxNodes) of every hard-decide
// query: it fixes the work of a pass, and a query that exhausts it counts
// as undecided.
const decideBudget = 600_000

// decideInstance is one reduction instance with its analyzer and the CDCL
// verdict on its formula.
type decideInstance struct {
	name string
	inst *reduction.Instance
	an   *core.Analyzer
	sat  bool
}

// decideFormula is one hard-decide formula and the reduction styles it is
// built in.
type decideFormula struct {
	name   string
	f      *sat.Formula
	styles []reduction.Style
}

var bothStyles = []reduction.Style{reduction.StyleSemaphore, reduction.StyleEvent}

// decideFormulas returns the hard-decide formulas. The satisfiable ones are
// every sign pattern of the two n=3, m=2 shapes whose clauses share all
// three variables: (l1 ∨ l2 ∨ l3) ∧ (¬l1 ∨ ¬l2 ∨ ¬l3) and the same clause
// twice. A witness search's cost swings a hundredfold between sign
// patterns, so the set holds all of them rather than a seeded sample, which
// would make seed-to-seed spread swamp any change worth measuring. The
// unsatisfiable ones are fixed small formulas whose must-have queries need
// an exhaustive co-NP proof; the largest, all four clauses over x1 and x2,
// is built in the semaphore style only, since the event-style instance
// needs about 2.3M nodes, past the budget.
func decideFormulas() []decideFormula {
	mk := func(n int, clauses ...[]int) *sat.Formula {
		f := sat.NewFormula(n)
		for _, c := range clauses {
			f.AddClause(c...)
		}
		return f
	}
	var fs []decideFormula
	for signs := 0; signs < 8; signs++ {
		c := []int{1, 2, 3}
		for v := range c {
			if signs>>v&1 == 1 {
				c[v] = -c[v]
			}
		}
		neg := []int{-c[0], -c[1], -c[2]}
		fs = append(fs,
			decideFormula{fmt.Sprintf("mixed%d", signs), mk(3, c, neg), bothStyles},
			decideFormula{fmt.Sprintf("twice%d", signs), mk(3, c, c), bothStyles})
	}
	return append(fs,
		decideFormula{"unsat-unit", mk(2, []int{1}, []int{-1, 2}, []int{-2}), bothStyles},
		decideFormula{"unsat-three", mk(2, []int{1, 2}, []int{-1, 2}, []int{-2}), bothStyles},
		decideFormula{"unsat-four", mk(2, []int{1, 2}, []int{-1, 2}, []int{1, -2}, []int{-1, -2}),
			[]reduction.Style{reduction.StyleSemaphore}})
}

// decideSetup builds every instance and its analyzer, in an op order the
// seed shuffles. It returns the mean reduction and core.New times per
// instance.
func decideSetup(seed int64) (ins []decideInstance, buildMs, newMs float64, err error) {
	for _, df := range decideFormulas() {
		for _, style := range df.styles {
			t0 := time.Now()
			inst, err := reduction.Build(df.f, style, core.Options{})
			if err != nil {
				return nil, 0, 0, err
			}
			t1 := time.Now()
			an, err := core.New(inst.X, core.Options{MaxNodes: decideBudget})
			if err != nil {
				return nil, 0, 0, err
			}
			buildMs += msOf(t1.Sub(t0))
			newMs += msOf(time.Since(t1))
			ins = append(ins, decideInstance{name: fmt.Sprintf("%s/%s", style, df.name), inst: inst, an: an})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	n := float64(len(ins))
	return ins, buildMs / n, newMs / n, nil
}

// hardDecideSetup is the hard-decide set-up, decideSetup timed by timeSetup.
func hardDecideSetup(seed int64) (su setup, ins []decideInstance, err error) {
	var builds, news []float64
	su.secs, err = timeSetup(func() error {
		in, b, n, err := decideSetup(seed)
		builds, news, ins = append(builds, b), append(news, n), in
		return err
	})
	su.buildMs, su.newMs = median(builds), median(news)
	return su, ins, err
}

// decideLoop is the measured state of one hard-decide loop.
type decideLoop struct {
	lat                []time.Duration
	passOps, passRate  []float64 // per whole pass: ops and states per second of op time
	nodes              int64
	queries, decided   int
	mallocs, gcs       uint64
	pass               core.Stats // first pass, summed over queries
	passDecided        int
	memoPeak           core.Stats
	passQueries        int
	decideTime         time.Duration
	engineErrs, budget int
}

// query runs one budgeted Decide from a cold memo and checks a decided
// verdict against the CDCL answer: a MHB b ⇔ UNSAT, b CHB a ⇔ SAT.
func query(ctx context.Context, in decideInstance, kind core.RelKind, res *result, tr *tracer, op int64, root int) (st core.Stats, decided bool, err error) {
	in.an.DropMemo()
	in.an.ResetStats()
	a, b := in.inst.A, in.inst.B
	want := !in.sat
	if kind == core.RelCHB {
		a, b, want = b, a, in.sat
	}
	sp := tr.begin("core.decide", op, root)
	got, err := in.an.Decide(ctx, kind, a, b)
	tr.end(sp)
	st = in.an.Stats()
	if errors.Is(err, core.ErrBudget) {
		return st, false, nil
	}
	if err != nil {
		return st, false, err
	}
	if got != want {
		res.mismatch("%s: %s verdict %v, CDCL says %v", in.name, kind, got, want)
	}
	return st, true, nil
}

func runDecideOps(ctx context.Context, ins []decideInstance, dur time.Duration, res *result, tr *tracer) (*decideLoop, error) {
	lp := &decideLoop{}
	// One untimed pass first, so heap growth and cold caches are not timed.
	for _, in := range ins {
		for _, kind := range []core.RelKind{core.RelMHB, core.RelCHB} {
			if _, _, err := query(ctx, in, kind, res, nil, 0, -1); err != nil {
				return nil, fmt.Errorf("%s %s: %w", in.name, kind, err)
			}
		}
	}
	runtime.GC()
	start := time.Now()
	var passTime time.Duration
	var passNodes int64
	// Whole passes only, so every instance weighs the same in the
	// percentiles.
	for i := 0; i%len(ins) != 0 || time.Since(start) < dur || i == 0; i++ {
		in := ins[i%len(ins)]
		op := int64(i)
		var before, after runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		root := tr.begin("decide.op", op, -1)
		var sts [2]core.Stats
		var oks [2]bool
		var errs [2]error
		for q, kind := range []core.RelKind{core.RelMHB, core.RelCHB} {
			sts[q], oks[q], errs[q] = query(ctx, in, kind, res, tr, op, root)
		}
		tr.end(root)
		d := time.Since(t0)
		if tr != nil {
			runtime.ReadMemStats(&after)
			lp.mallocs += after.Mallocs - before.Mallocs
			lp.gcs += uint64(after.NumGC - before.NumGC)
		}
		lp.lat = append(lp.lat, d)
		passTime += d
		for q := range sts {
			lp.queries++
			lp.nodes += sts[q].Nodes
			passNodes += sts[q].Nodes
			if errs[q] != nil {
				lp.engineErrs++
				res.failed++
				continue
			}
			if !oks[q] {
				lp.budget++
				continue
			}
			lp.decided++
			if i < len(ins) {
				lp.passDecided++
			}
		}
		if i%len(ins) == len(ins)-1 {
			lp.passOps = append(lp.passOps, float64(len(ins))/passTime.Seconds())
			lp.passRate = append(lp.passRate, float64(passNodes)/passTime.Seconds())
			passTime, passNodes = 0, 0
		}
		if i < len(ins) {
			for _, st := range sts {
				lp.passQueries++
				lp.pass.Nodes += st.Nodes
				lp.pass.Edges += st.Edges
				lp.pass.MemoHits += st.MemoHits
				lp.pass.MemoGrows += st.MemoGrows
				lp.pass.SymmCollapses += st.SymmCollapses
				lp.pass.SymmClasses += st.SymmClasses
				if st.MemoBytes > lp.memoPeak.MemoBytes {
					lp.memoPeak = st
				}
			}
		}
	}
	return lp, nil
}

func runHardDecide(cfg config) (*result, error) {
	ctx := context.Background()
	res := newResult()

	su, ins, err := hardDecideSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	if res.e2e["setup_s"], err = setupAcrossProcesses(cfg, su.secs); err != nil {
		return nil, err
	}

	// Oracle: the CDCL solver on each formula, outside set-up and timing.
	t0 := time.Now()
	satCount := 0
	for i := range ins {
		ins[i].sat = sat.Solve(ins[i].inst.Formula).SAT
		if ins[i].sat {
			satCount++
		}
	}
	solveMs := msOf(time.Since(t0)) / float64(len(ins))

	var tr *tracer
	dur := cfg.dur
	var untraced *decideLoop
	if cfg.trace {
		dur /= 2
		if untraced, err = runDecideOps(ctx, ins, dur, res, nil); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	lp, err := runDecideOps(ctx, ins, dur, res, tr)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	lat := summarize(lp.lat, decideTailPct)
	res.attempted = lp.queries
	if untraced != nil {
		res.attempted += untraced.queries
	}
	res.e2e["latency_p50_ms"] = lat.p50
	res.e2e["latency_tail_ms"] = lat.tail
	res.e2e["throughput_ops_s"] = median(lp.passOps)
	res.e2e["sustained_rps"] = res.e2e["throughput_ops_s"]
	res.e2e["states_per_s"] = median(lp.passRate)
	res.e2e["decided_frac"] = ratio(float64(lp.decided), float64(lp.queries))
	res.e2e["peak_rss_mb"] = rss
	res.info["latency"] = lat.info()
	res.info["loop"] = "closed, 1 client; op = one instance (a MHB b, then b CHB a)"
	res.info["node_budget"] = decideBudget
	res.info["instances"] = len(ins)
	res.info["sat_instances"] = satCount
	res.info["engine_errors"] = lp.engineErrs
	res.info["budget_outs"] = lp.budget
	perInstance := map[string]float64{}
	for i, in := range ins {
		var ms []float64
		for j := i; j < len(lp.lat); j += len(ins) {
			ms = append(ms, msOf(lp.lat[j]))
		}
		perInstance[in.name] = median(ms)
	}
	res.info["instance_p50_ms"] = perInstance

	if tr != nil {
		L := res.layer
		ops := float64(len(lp.lat))
		self := tr.selfTimes()
		var decideSum time.Duration
		for _, s := range tr.spans {
			if s.Name == "core.decide" {
				decideSum += s.End - s.Start
			}
		}
		p := lp.pass
		L["core.decide_ms"] = msOf(decideSum) / float64(lp.queries)
		L["core.decide_states"] = float64(p.Nodes)
		L["core.states"] = float64(p.Nodes)
		L["core.edges"] = float64(p.Edges)
		L["core.edges_per_state"] = ratio(float64(p.Edges), float64(p.Nodes))
		L["core.memo_hit_frac"] = ratio(float64(p.MemoHits), float64(p.MemoHits+p.Nodes))
		L["core.allocs_per_state"] = ratio(float64(lp.mallocs), float64(lp.nodes))
		L["core.gc_cycles"] = float64(lp.gcs) / ops
		L["core.unattributed_ms"] = msOf(self["decide.op"]) / ops
		L["core.decided_queries"] = float64(lp.passDecided)
		L["statetab.memo_bytes"] = float64(lp.memoPeak.MemoBytes)
		L["statetab.memo_load"] = lp.memoPeak.MemoLoad
		L["statetab.memo_grows"] = float64(p.MemoGrows)
		L["symm.classes"] = float64(p.SymmClasses)
		L["symm.collapse_frac"] = ratio(float64(p.SymmCollapses), float64(p.Nodes))
		L["reduction.build_ms"] = su.buildMs
		L["core.new_ms"] = su.newMs
		L["sat.solve_ms"] = solveMs
		tracingLayers(res, tr, summarize(untraced.lat, decideTailPct).p50, lat.p50)
		res.info["counts"] = map[string]any{
			"core.states": p.Nodes, "core.edges": p.Edges,
			"decided_queries": lp.passDecided, "queries": lp.passQueries,
		}
		if err := tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-hard-decide-%d.json", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}
