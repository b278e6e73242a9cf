package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// drive runs an open-loop schedule over conns client connections: the
// first free connection takes the next request and sends it at its due
// time, or at once when it is already late. Latency is measured from the
// due time, so a stall also charges the requests queued behind it.
func drive(srv *server, conns int, sched []*request) ([]record, time.Time) {
	recs := make([]record, len(sched))
	base := sched[0].idx
	var mu sync.Mutex
	next := 0                  // index of the next request to take
	jobIDs := map[int]string{} // async submission index → job id
	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	var clients []*http.Client
	for c := 0; c < conns; c++ {
		client := &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		}
		clients = append(clients, client)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(sched) {
					mu.Unlock()
					return
				}
				req := sched[next]
				next++
				mu.Unlock()
				waitUntil(t0.Add(req.due))
				rec := &recs[req.idx-base]
				path, body := req.path, req.body
				if req.class == "poll" {
					mu.Lock()
					id, ok := jobIDs[req.pollOf]
					mu.Unlock()
					if !ok {
						rec.skipped = true
						continue
					}
					path = "/v1/jobs/" + id
				}
				rec.start = time.Now()
				rec.status, rec.body, rec.err = send(client, srv.addr, path, body)
				rec.end = time.Now()
				if req.class == "async" && rec.status == http.StatusAccepted {
					var jr jobResponse
					if json.Unmarshal(rec.body, &jr) == nil && jr.ID != "" {
						mu.Lock()
						jobIDs[req.idx] = jr.ID
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	return recs, t0
}

// waitUntil returns at t: it sleeps until shortly before, then spins, since
// a sleeping Go timer can wake up to a millisecond late and that error
// would land in every measured latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// send makes one request: a POST when body is non-nil, else a GET.
func send(client *http.Client, addr, path string, body []byte) (int, []byte, error) {
	url := "http://" + addr + path
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
	} else {
		resp, err = client.Get(url)
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// wrongAnswer marks a response that contradicts the oracle, as opposed to
// one that failed (an error status or a transport error).
type wrongAnswer struct{ error }

// checkMatrix compares a matrix response with the oracle. A complete
// response must equal it; a partial one's proven-true pairs must lie inside
// it and its proven-false pairs outside. It returns the decided and
// requested verdict counts.
func checkMatrix(raw json.RawMessage, req *request) (wm wireMatrix, decided, requested int, err error) {
	if err = json.Unmarshal(raw, &wm); err != nil {
		return wm, 0, 0, wrongAnswer{err}
	}
	names := make([]string, len(wm.Events))
	for i, name := range wm.Events {
		names[i] = name
		if req.rename[0] != "" && strings.HasPrefix(name, req.rename[0]) {
			names[i] = req.rename[1] + name[len(req.rename[0]):]
		}
	}
	pairSet := func(ps [][2]int) (map[[2]string]bool, error) {
		set := map[[2]string]bool{}
		for _, p := range ps {
			if p[0] < 0 || p[1] < 0 || p[0] >= len(names) || p[1] >= len(names) {
				return nil, fmt.Errorf("pair %v out of range", p)
			}
			set[[2]string{names[p[0]], names[p[1]]}] = true
		}
		return set, nil
	}
	for _, k := range req.kinds {
		got, err := pairSet(wm.Relations[k.String()])
		if err != nil {
			return wm, 0, 0, wrongAnswer{err}
		}
		open, err := pairSet(wm.Undecided[k.String()])
		if err != nil {
			return wm, 0, 0, wrongAnswer{err}
		}
		want := req.want[k]
		if wm.Complete && len(open) > 0 {
			return wm, 0, 0, wrongAnswer{fmt.Errorf("%s: complete result with undecided pairs", k)}
		}
		for p := range got {
			if !want[p] {
				return wm, 0, 0, wrongAnswer{fmt.Errorf("%s: pair %v claimed, oracle disagrees", k, p)}
			}
		}
		for p := range want {
			if !got[p] && !open[p] {
				return wm, 0, 0, wrongAnswer{fmt.Errorf("%s: pair %v refuted, oracle holds it", k, p)}
			}
		}
		requested += wm.TotalPairs
		decided += wm.TotalPairs - len(open)
	}
	return wm, decided, requested, nil
}

// mixStats accumulates what the responses of one schedule report.
type mixStats struct {
	late               []time.Duration // all answered requests
	rungLat, rungLate  [][]time.Duration
	rungFail, rungOK   []int
	rungStart, rungEnd []time.Time
	ok, attempted      int
	skipped            int
	first, last        time.Time
	decided, requested int

	// From envelopes and response bodies.
	lanes                      map[string]int
	waitMs                     map[string]float64
	phaseMs                    map[string]float64
	phaseN                     map[string]int
	analyzed, cached, partials int
	unattribMs, respBytes      float64
	engineMs                   float64
	nodes                      int64
	planTotal, planResidue     int
	planTier                   map[string]int
	acceptMs                   float64
	accepts                    int
	jobs                       map[int]string // async index → job id
	doneJobs                   map[int]bool
	failures                   []string                   // first few failed requests
	classLat                   map[string][]time.Duration // nominal rung
	rates                      []weighted                 // nominal rung: states/s per engine run, by states
}

func newMixStats(rungs int) *mixStats {
	return &mixStats{
		rungLat: make([][]time.Duration, rungs), rungLate: make([][]time.Duration, rungs),
		rungFail: make([]int, rungs), rungOK: make([]int, rungs),
		rungStart: make([]time.Time, rungs), rungEnd: make([]time.Time, rungs),
		lanes: map[string]int{}, waitMs: map[string]float64{}, phaseMs: map[string]float64{},
		phaseN: map[string]int{}, planTier: map[string]int{}, jobs: map[int]string{}, doneJobs: map[int]bool{},
		classLat: map[string][]time.Duration{},
	}
}

// evaluate checks every response of a driven schedule against the oracle
// and accumulates the latency and layer statistics. With a tracer it also
// records a span per request, with the server-reported queue wait and
// phases as its children.
func (ms *mixStats) evaluate(res *result, sched []*request, recs []record, t0 time.Time, tr *tracer) {
	byIdx := map[int]*request{}
	for _, req := range sched {
		byIdx[req.idx] = req
	}
	for i, req := range sched {
		rec := recs[i]
		due := t0.Add(req.due)
		if ms.rungStart[req.rung].IsZero() {
			ms.rungStart[req.rung] = due
		}
		if rec.skipped {
			ms.skipped++
			continue
		}
		ms.attempted++
		lat, late := rec.end.Sub(due), rec.start.Sub(due)
		ms.late = append(ms.late, late)
		ms.rungLat[req.rung] = append(ms.rungLat[req.rung], lat)
		if req.rung == 0 {
			ms.classLat[req.class] = append(ms.classLat[req.class], lat)
		}
		ms.rungLate[req.rung] = append(ms.rungLate[req.rung], late)
		if rec.end.After(ms.rungEnd[req.rung]) {
			ms.rungEnd[req.rung] = rec.end
		}
		if ms.first.IsZero() {
			ms.first = due
		}
		if rec.end.After(ms.last) {
			ms.last = rec.end
		}
		if err := ms.check(req, rec, byIdx, tr); err != nil {
			ms.rungFail[req.rung]++
			ms.fail(res, fmt.Errorf("request %d (%s): %w", req.idx, req.class, err))
			continue
		}
		ms.ok++
		ms.rungOK[req.rung]++
	}
}

func (ms *mixStats) check(req *request, rec record, byIdx map[int]*request, tr *tracer) error {
	if rec.err != nil {
		return rec.err
	}
	switch req.class {
	case "async":
		if rec.status != http.StatusAccepted {
			return fmt.Errorf("status %d: %s", rec.status, rec.body)
		}
		var jr jobResponse
		if err := json.Unmarshal(rec.body, &jr); err != nil {
			return err
		}
		ms.jobs[req.idx] = jr.ID
		ms.acceptMs += msOf(rec.end.Sub(rec.start))
		ms.accepts++
		return nil
	case "poll":
		if rec.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.status, rec.body)
		}
		return ms.checkJob(rec.body, byIdx[req.pollOf])
	}
	if rec.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.status, rec.body)
	}
	var env envelope
	if err := json.Unmarshal(rec.body, &env); err != nil {
		return wrongAnswer{err}
	}
	wm, dec, reqd, err := checkMatrix(env.Result, req)
	if err != nil {
		return err
	}
	ms.decided += dec
	ms.requested += reqd
	ms.analyzed++
	ms.respBytes += float64(len(rec.body))
	if !wm.Complete {
		ms.partials++
	}
	if env.Cached {
		ms.cached++
	}
	if env.Trace == nil {
		return wrongAnswer{fmt.Errorf("envelope without a trace block")}
	}
	ms.lanes[env.Trace.Lane]++
	ms.waitMs[env.Trace.Lane] += env.Trace.QueueWaitMs
	rtt := msOf(rec.end.Sub(rec.start))
	attributed := env.Trace.QueueWaitMs
	var engine float64
	for _, p := range env.Trace.Phases {
		ms.phaseMs[p.Name] += p.Ms
		ms.phaseN[p.Name]++
		attributed += p.Ms
		if p.Name == "forward" || p.Name == "backward" {
			engine += p.Ms
		}
	}
	ms.unattribMs += rtt - attributed
	if !env.Cached && wm.Nodes > 0 {
		ms.engineMs += engine
		ms.nodes += wm.Nodes
		if engine > 0 && req.rung == 0 {
			ms.rates = append(ms.rates, weighted{float64(wm.Nodes) / engine * 1000, float64(wm.Nodes)})
		}
	}
	if wm.Plan != nil && !env.Cached {
		ms.planTotal += wm.Plan.TotalPairs
		ms.planResidue += wm.Plan.ResiduePairs
		for _, t := range wm.Plan.Tiers {
			ms.planTier[t.Tier] += t.PairsDecided
		}
	}
	if tr != nil {
		op := int64(req.idx)
		root := tr.begin("serve.request", op, -1)
		tr.spans[root].Start, tr.spans[root].End = rec.start.Sub(tr.t0), rec.end.Sub(tr.t0)
		// Server-reported durations, laid end to end from the send.
		at := rec.start
		add := func(name string, d time.Duration) {
			at = at.Add(d)
			tr.record(name, op, root, at, d)
		}
		add("service.queue_wait", time.Duration(env.Trace.QueueWaitMs*float64(time.Millisecond)))
		for _, p := range env.Trace.Phases {
			add("service."+p.Name, time.Duration(p.Ms*float64(time.Millisecond)))
		}
	}
	return nil
}

// rung summarizes one driven rung and reports whether it passed: no failed
// request, and p90 latency from the due time within latencyLimit.
func (ms *mixStats) rung(r int) (map[string]any, bool) {
	rl := summarize(ms.rungLat[r], rungPassPct)
	lateMs := sortedMs(ms.rungLate[r])
	lateP99 := percentile(lateMs, 99)
	achieved := ratio(float64(ms.rungOK[r]), ms.rungEnd[r].Sub(ms.rungStart[r]).Seconds())
	pass := ms.rungFail[r] == 0 && rl.tail <= msOf(latencyLimit)
	return map[string]any{"rate": ladder[r], "achieved": achieved, "pass": pass, "latency": rl.info(),
		"late_p50_ms": percentile(lateMs, 50), "late_p99_ms": lateP99, "failed": ms.rungFail[r]}, pass
}

// fail counts a failed request; a wrong answer also fails the run.
func (ms *mixStats) fail(res *result, err error) {
	var wrong wrongAnswer
	if errors.As(err, &wrong) {
		res.mismatch("%v", err)
		return
	}
	res.failed++
	if len(ms.failures) < 10 {
		ms.failures = append(ms.failures, err.Error())
	}
}

// checkJob verifies a polled job: running and queued are fine, a done job's
// result must match the oracle, a failed job is a failure.
func (ms *mixStats) checkJob(body []byte, sub *request) error {
	var jr jobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return err
	}
	switch jr.Status {
	case "queued", "running":
		return nil
	case "done":
		_, dec, reqd, err := checkMatrix(jr.Result, sub)
		if err != nil {
			return err
		}
		ms.decided += dec
		ms.requested += reqd
		ms.doneJobs[sub.idx] = true
		return nil
	}
	return fmt.Errorf("job %s %s: %s", jr.ID, jr.Status, jr.Error)
}

// drainJobs polls every accepted async job not yet seen done until it
// finishes, and verifies its result.
func (ms *mixStats) drainJobs(res *result, srv *server, sched []*request) {
	byIdx := map[int]*request{}
	for _, req := range sched {
		byIdx[req.idx] = req
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for idx, id := range ms.jobs {
		for !ms.doneJobs[idx] {
			status, body, err := send(client, srv.addr, "/v1/jobs/"+id, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				err = ms.checkJob(body, byIdx[idx])
			}
			if err != nil {
				ms.fail(res, fmt.Errorf("async job %s: %w", id, err))
				break
			}
			if time.Now().After(deadline) {
				ms.fail(res, fmt.Errorf("async job %s unfinished after drain", id))
				break
			}
			if !ms.doneJobs[idx] {
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
}

// preseed boots a server on an empty state directory, runs a fixed set of
// async jobs (every testdata program, all six relations) to completion and
// shuts it down, leaving a journal and blob store for set-up to replay.
func preseed(cfg config, g *mixGen, dir string) (int, error) {
	srv, err := startServer(cfg, dir)
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var ids []string
	for _, name := range g.seedPrograms() {
		body, err := json.Marshal(analyzeBody{Program: g.programs[name], All: true, Async: true})
		if err != nil {
			return 0, err
		}
		status, resp, err := send(client, srv.addr, "/v1/analyze", body)
		if err != nil || status != http.StatusAccepted {
			return 0, fmt.Errorf("pre-seed submit %s: status %d: %v", name, status, err)
		}
		var jr jobResponse
		if err := json.Unmarshal(resp, &jr); err != nil {
			return 0, err
		}
		ids = append(ids, jr.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			status, resp, err := send(client, srv.addr, "/v1/jobs/"+id, nil)
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("pre-seed poll %s: status %d: %v", id, status, err)
			}
			var jr jobResponse
			if err := json.Unmarshal(resp, &jr); err != nil {
				return 0, err
			}
			if jr.Status == "done" {
				break
			}
			if jr.Status == "failed" || time.Now().After(deadline) {
				return 0, fmt.Errorf("pre-seed job %s: %s %s", id, jr.Status, jr.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return len(ids), nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// serverBoots is how many times serve-mix boots the server; setup_s is the
// median boot time.
const serverBoots = 11

func runServeMix(cfg config) (*result, error) {
	res := newResult()
	runDir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d-%d", cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Inputs and oracle answers, before any server runs.
	g, err := newMixGen(cfg.seed, cfg.testdata)
	if err != nil {
		return nil, err
	}
	// Schedules: the nominal rung for half the time, then one per higher
	// rung in equal shares of the rest. A traced run drives the nominal
	// rung only: an untraced half, then a traced half.
	var scheds [][]*request
	rungs, durs := []int{0}, []time.Duration{cfg.dur / 2}
	if cfg.trace {
		rungs, durs = []int{0, 0}, []time.Duration{cfg.dur / 2, cfg.dur / 2}
	} else {
		for r := 1; r < len(ladder); r++ {
			rungs, durs = append(rungs, r), append(durs, cfg.dur/2/time.Duration(len(ladder)-1))
		}
	}
	for i, next := 0, 0; i < len(rungs); i++ {
		s, err := g.schedule(ladder[rungs[i]], rungs[i], durs[i], next)
		if err != nil {
			return nil, err
		}
		if len(s) == 0 {
			return nil, fmt.Errorf("-seconds too short for a schedule")
		}
		scheds = append(scheds, s)
		next += len(s)
	}

	seeded := filepath.Join(runDir, "seeded")
	seedJobs, err := preseed(cfg, g, seeded)
	if err != nil {
		return nil, err
	}
	// Set-up: boot to healthy over a copy of the pre-seeded state,
	// including journal replay; the last boot serves the run.
	var setups []float64
	var srv *server
	for i := 0; i < serverBoots; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("state%d", i))
		if err := copyDir(seeded, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := startServer(cfg, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serverBoots-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	res.e2e["setup_s"] = median(setups)
	boot, err := srv.metrics()
	if err != nil {
		return nil, err
	}

	var tr *tracer
	var untraced *mixStats
	ms := newMixStats(len(ladder))
	var m0, m1 metricsSnapshot
	var cpu time.Duration // server CPU time over the nominal rung
	var rungInfo []map[string]any
	sustained, toppedOut := 0.0, false
	for i, sched := range scheds {
		st := ms
		if cfg.trace && i == 0 {
			st = newMixStats(len(ladder))
			untraced = st
		}
		if cfg.trace && i == 1 {
			tr = newTracer()
			if m0, err = srv.metrics(); err != nil {
				return nil, err
			}
		}
		cpu0, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		recs, t0 := drive(srv, cfg.conns, sched)
		st.evaluate(res, sched, recs, t0, tr)
		st.drainJobs(res, srv, sched)
		cpu1, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cpu = cpu1 - cpu0
		}
		if cfg.trace {
			continue
		}
		// Climb the ladder while rungs pass; the first failing rung ends
		// the run.
		info, pass := ms.rung(rungs[i])
		rungInfo = append(rungInfo, info)
		if !pass {
			break
		}
		sustained = info["achieved"].(float64)
		toppedOut = i == len(scheds)-1
	}
	res.attempted = ms.attempted
	if untraced != nil {
		res.attempted += untraced.attempted
	}
	if cfg.trace {
		if m1, err = srv.metrics(); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}

	// End-to-end: latency at the nominal rung, capacity from the ladder.
	lat := summarize(ms.rungLat[0], serveTailPct)
	res.e2e["latency_p50_ms"] = lat.p50
	res.e2e["latency_tail_ms"] = lat.tail
	// Requests the server analyzed: misses on the fast and heavy lanes,
	// without cache hits and job calls. Reported, not gated: their median
	// moves by up to half between runs with the host's wake-up latency.
	var missLat []time.Duration
	for _, class := range []string{"fast", "small", "heavy"} {
		missLat = append(missLat, ms.classLat[class]...)
	}
	miss := summarize(missLat, serveTailPct)
	// Requests answered per second of the server's CPU time at the nominal
	// rung, its async jobs' background work included: the rate the server
	// could answer this mix at per busy core. The open loop's own
	// completion rate would only echo the schedule.
	res.e2e["throughput_ops_s"] = ratio(float64(ms.rungOK[0]), cpu.Seconds())
	res.e2e["sustained_rps"] = sustained
	res.e2e["states_per_s"] = weightedMedian(ms.rates)
	res.e2e["decided_frac"] = ratio(float64(ms.decided), float64(ms.requested))
	res.e2e["peak_rss_mb"] = rss
	res.info["latency"] = lat.info()
	res.info["miss_latency"] = miss.info()
	res.info["loop"] = fmt.Sprintf("open, fixed rates, %d connections", cfg.conns)
	res.info["ladder_rps"] = ladder
	res.info["latency_limit_ms"] = msOf(latencyLimit)
	res.info["rungs"] = rungInfo
	res.info["ladder_topped_out"] = toppedOut
	res.info["server_cpu_s"] = cpu.Seconds()
	res.info["preseed_jobs"] = seedJobs
	res.info["poll_skipped"] = ms.skipped
	res.info["failures"] = ms.failures
	classes := map[string]any{}
	for class, l := range ms.classLat {
		classes[class] = summarize(l, serveTailPct).info()
	}
	res.info["class_latency"] = classes
	res.info["counts"] = map[string]any{
		"journal.replay_records": boot.Counters["journal_replay_records"],
		"store.rehydrated":       boot.Counters["store_rehydrated"],
		"requests":               ms.attempted,
	}

	if tr != nil {
		serveLayers(res, ms, untraced, tr, g, boot, m0, m1)
		if err := tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-serve-mix-%d.json", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveLayers fills the per-layer metrics of a traced serve-mix run from
// the traced half's envelopes, the bench's own resolve-layer calls, and
// /metrics before and after it.
func serveLayers(res *result, ms, untraced *mixStats, tr *tracer, g *mixGen, boot, m0, m1 metricsSnapshot) {
	L := res.layer
	delta := func(name string) float64 { return float64(m1.Counters[name] - m0.Counters[name]) }
	mean := func(name string) float64 { return ratio(ms.phaseMs[name], float64(ms.phaseN[name])) }
	an := float64(ms.analyzed)
	L["service.resolve_ms"] = mean("resolve")
	L["plan.build_ms"] = mean("plan")
	L["core.forward_ms"] = mean("forward")
	L["core.backward_ms"] = mean("backward")
	L["service.engine_ms"] = ratio(ms.engineMs, float64(ms.phaseN["forward"]))
	L["service.queue_wait_ms.fast"] = ratio(ms.waitMs["fast"], float64(ms.lanes["fast"]))
	L["service.queue_wait_ms.heavy"] = ratio(ms.waitMs["heavy"], float64(ms.lanes["heavy"]))
	for _, lane := range []string{"cache", "fast", "heavy"} {
		L["service.lane_frac."+lane] = ratio(float64(ms.lanes[lane]), an)
	}
	L["service.cache_hit_frac"] = ratio(float64(ms.cached), an)
	L["service.partial_frac"] = ratio(float64(ms.partials), an)
	L["service.throttled_frac"] = ratio(delta("jobs_throttled"), delta("requests_analyze"))
	L["service.shed_frac"] = ratio(delta("jobs_shed"), delta("requests_analyze"))
	L["service.unattributed_ms"] = ratio(ms.unattribMs, an)
	L["service.resp_bytes"] = ratio(ms.respBytes, an)
	L["core.states"] = float64(ms.nodes)
	L["plan.total_pairs"] = float64(ms.planTotal)
	L["plan.residue_pairs"] = float64(ms.planResidue)
	L["plan.residue_frac"] = ratio(float64(ms.planResidue), float64(ms.planTotal))
	L["plan.frac.static"] = ratio(float64(ms.planTier["static"]), float64(ms.planTotal))
	L["plan.frac.observed"] = ratio(float64(ms.planTier["observed"]), float64(ms.planTotal))
	L["plan.frac.dag"] = ratio(float64(ms.planTier["dag"]), float64(ms.planTotal))
	L["statetab.memo_bytes"] = float64(m1.Gauges["memo_bytes"])
	L["statetab.memo_load"] = float64(m1.Gauges["memo_load_permille"]) / 1000
	L["statetab.memo_grows"] = delta("memo_grow_total")
	L["symm.classes"] = float64(m1.Gauges["symm_classes"])
	L["symm.collapse_frac"] = ratio(delta("symm_collapse_total"), float64(ms.nodes))
	L["lang.parse_ms"] = ratio(msOf(g.parse), float64(g.nParse))
	L["interp.run_ms"] = ratio(msOf(g.run), float64(g.nRun))
	L["traceio.load_ms"] = ratio(msOf(g.load), float64(g.nLoad))
	L["traceio.bytes"] = ratio(float64(g.traceBytes), float64(g.nLoad))
	L["journal.accept_ms"] = ratio(ms.acceptMs, float64(ms.accepts))
	L["journal.records"] = delta("journal_records_total")
	L["journal.replay_records"] = float64(boot.Counters["journal_replay_records"])
	L["store.rehydrated"] = float64(boot.Counters["store_rehydrated"])
	L["loadgen.late_p99_ms"] = percentile(sortedMs(ms.late), 99)
	L["loadgen.sent"] = float64(ms.attempted)
	tracingLayers(res, tr, summarize(untraced.rungLat[0], serveTailPct).p50, summarize(ms.rungLat[0], serveTailPct).p50)
	counts := res.info["counts"].(map[string]any)
	counts["journal.records"] = m1.Counters["journal_records_total"] - m0.Counters["journal_records_total"]
	counts["plan.residue_pairs"] = ms.planResidue
	counts["plan.total_pairs"] = ms.planTotal
}
