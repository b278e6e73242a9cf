package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"syscall"
	"time"

	"eventorder"
	"eventorder/internal/core"
	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
	"eventorder/internal/traceio"
)

// The serve-mix ladder: fixed request rates, doubling. The first rung is
// the nominal rate the latency metrics are taken at and runs for half the
// measured time; the others share the rest, climbing until a rung fails.
// sustained_rps is the highest rung with no failed request whose p90
// latency, timed from when each request was due, stays within
// latencyLimit; timing from the due time makes a growing backlog fail the
// rung. On a 2-CPU machine the server's capacity for this mix is
// 400–500 req/s, between the 320 and 640 rungs, so a normal run stops at a
// failing rung. The limit sits between the p90 of a passing 320 req/s rung
// (15–60 ms) and that of a failing 640 req/s rung (0.6 s or more).
var ladder = []float64{80, 160, 320, 640}

const (
	latencyLimit = 150 * time.Millisecond
	rungPassPct  = 90
)

// mixBlock is the request mix, repeated in shuffled blocks of 23. Its
// shares follow the service's soak harness (service.RunSoak) as measured
// in BENCH_soak.json with the fast lane on: of 16,676 analyze answers, 29%
// came from the cache, 4% from the fast lane, 47% from the heavy lane and
// 20% were async 202s. Each async submission gets two polls, as RunSoak's
// client polls a job every 10 ms and a burst.evo job takes 12–15 ms.
// RunSoak's heavy programs are burst.evo and three smaller ones, so one
// heavy miss in four is on burst.evo and the rest are on the other
// testdata programs.
var mixBlock = map[string]int{"cache": 5, "fast": 1, "small": 6, "heavy": 2, "async": 3, "poll": 6}

// heavyProgram is the testdata program behind heavy misses and async jobs;
// the other testdata programs (except the planner-decided handshake and
// any without a label) make the small misses.
const heavyProgram = "burst.evo"

var relOptions = []string{"", "MHB", "CHB", "MCW", "CCW", "MOW", "COW"}

// analyzeBody is the /v1/analyze request the generator sends.
type analyzeBody struct {
	Program    string          `json:"program,omitempty"`
	Execution  json.RawMessage `json:"execution,omitempty"`
	Seed       int64           `json:"seed,omitempty"`
	Rel        string          `json:"rel,omitempty"`
	All        bool            `json:"all,omitempty"`
	IgnoreData bool            `json:"ignoreData,omitempty"`
	Tiers      int             `json:"tiers,omitempty"`
	Async      bool            `json:"async,omitempty"`
}

// Wire shapes read back from the server.
type envelope struct {
	Cached bool `json:"cached"`
	Trace  *struct {
		Lane        string  `json:"lane"`
		QueueWaitMs float64 `json:"queueWaitMs"`
		Phases      []struct {
			Name string  `json:"name"`
			Ms   float64 `json:"ms"`
		} `json:"phases"`
	} `json:"trace"`
	Result json.RawMessage `json:"result"`
}

type wireMatrix struct {
	Events     []string            `json:"events"`
	Complete   bool                `json:"complete"`
	Relations  map[string][][2]int `json:"relations"`
	Undecided  map[string][][2]int `json:"undecided"`
	TotalPairs int                 `json:"totalPairs"`
	Nodes      int64               `json:"nodes"`
	Plan       *struct {
		TotalPairs   int `json:"totalPairs"`
		ResiduePairs int `json:"residuePairs"`
		Tiers        []struct {
			Tier         string `json:"tier"`
			PairsDecided int    `json:"pairsDecided"`
		} `json:"tiers"`
	} `json:"plan"`
}

type jobResponse struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

type metricsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// oracle holds eventorder.AnalyzeMatrix's verdicts for one execution and
// feasibility notion, as event-name pairs per relation.
type oracle map[core.RelKind]map[[2]string]bool

// request is one scheduled operation.
type request struct {
	idx    int
	class  string
	rung   int
	due    time.Duration // offset from the schedule's start
	path   string        // GET when body is nil
	body   []byte
	want   oracle
	kinds  []core.RelKind
	rename [2]string // event-name prefix {new, old}: response names → oracle names
	pollOf int       // poll: index of the async submission it polls
}

// record is the outcome of one request.
type record struct {
	start, end time.Time
	status     int
	body       []byte
	err        error
	skipped    bool // a poll whose submission had no job id yet
}

// mixGen builds seeded request schedules and the oracle answers for them.
type mixGen struct {
	rng      *rand.Rand
	programs map[string]string // testdata name → source
	small    []string
	runs     map[string]*localRun // program|seed → local run
	oracles  map[string]oracle    // execution digest|ignoreData → verdicts
	earlier  []*request           // repeatable requests of earlier schedules
	uid      int

	// Bench-side calls into the resolve layers, timed.
	parse, run, load    time.Duration
	nParse, nRun, nLoad int
	traceBytes          int
}

type localRun struct {
	x      *model.Execution
	json   []byte
	digest string
}

func newMixGen(seed int64, testdata string) (*mixGen, error) {
	g := &mixGen{
		rng:      rand.New(rand.NewSource(seed)),
		programs: map[string]string{},
		runs:     map[string]*localRun{},
		oracles:  map[string]oracle{},
	}
	files, err := filepath.Glob(filepath.Join(testdata, "*.evo"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(f)
		g.programs[name] = string(src)
		// A miss renames a label, so programs without one (barrier6.evo)
		// are left out.
		if name != heavyProgram && name != "handshake.evo" && labelRE.MatchString(g.programs[name]) {
			g.small = append(g.small, name)
		}
	}
	if _, ok := g.programs[heavyProgram]; !ok || len(g.small) == 0 {
		return nil, fmt.Errorf("no testdata programs under %s", testdata)
	}
	sort.Strings(g.small)
	return g, nil
}

// resolve runs a program locally exactly as the server does (lang.Parse,
// interp.RunAvoidingDeadlock with 64 tries) and serializes the execution.
func (g *mixGen) resolve(src string, seed int64) (*localRun, error) {
	key := fmt.Sprintf("%x|%d", sha256.Sum256([]byte(src)), seed)
	if r, ok := g.runs[key]; ok {
		return r, nil
	}
	t0 := time.Now()
	prog, err := lang.Parse(src)
	g.parse += time.Since(t0)
	g.nParse++
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	res, err := interp.RunAvoidingDeadlock(prog, 64, seed)
	g.run += time.Since(t0)
	g.nRun++
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := traceio.SaveExecution(&buf, res.X); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	r := &localRun{x: res.X, json: buf.Bytes(), digest: hex.EncodeToString(sum[:])}
	g.runs[key] = r
	return r, nil
}

// loadTrace round-trips a serialized execution through traceio, the path
// the server takes for "execution" requests.
func (g *mixGen) loadTrace(r *localRun) error {
	t0 := time.Now()
	x, err := traceio.LoadExecution(bytes.NewReader(r.json))
	g.load += time.Since(t0)
	g.nLoad++
	g.traceBytes += len(r.json)
	if err != nil {
		return err
	}
	if x.NumEvents() != r.x.NumEvents() {
		return fmt.Errorf("traceio round trip changed the event count")
	}
	return nil
}

// oracleFor computes (once) AnalyzeMatrix's answer for an execution.
func (g *mixGen) oracleFor(r *localRun, ignoreData bool) (oracle, error) {
	key := fmt.Sprintf("%s|%t", r.digest, ignoreData)
	if o, ok := g.oracles[key]; ok {
		return o, nil
	}
	m, err := eventorder.AnalyzeMatrix(context.Background(), r.x, nil, core.Options{IgnoreData: ignoreData}, core.MatrixOpts{})
	if err != nil {
		return nil, err
	}
	if !m.Complete {
		return nil, fmt.Errorf("oracle analysis incomplete")
	}
	o := oracle{}
	for _, k := range m.Kinds {
		set := map[[2]string]bool{}
		for _, p := range m.Relations[k].Pairs() {
			set[[2]string{r.x.EventName(p[0]), r.x.EventName(p[1])}] = true
		}
		o[k] = set
	}
	g.oracles[key] = o
	return o, nil
}

// miss builds a request the server has not seen: a seeded variant
// (scheduler seed, program or trace source, relation, ignoreData, tiers) of
// a testdata program whose first label carries a suffix unique in the run.
// The new label gives the request an execution, and with it a cache key,
// of its own, while the work stays that of the program. heavyPlan forces
// the planner off, so the exact engine settles every pair.
func (g *mixGen) miss(program string, async, heavyPlan bool) (*request, error) {
	seed := 1 + g.rng.Int63n(64)
	base, err := g.resolve(g.programs[program], seed)
	if err != nil {
		return nil, err
	}
	g.uid++
	src, rename := relabel(g.programs[program], g.uid)
	r, err := g.resolve(src, seed)
	if err != nil {
		return nil, err
	}
	b := analyzeBody{
		Rel:        relOptions[g.rng.Intn(len(relOptions))],
		IgnoreData: g.rng.Intn(2) == 0,
		Tiers:      -g.rng.Intn(2),
		Async:      async,
	}
	if heavyPlan {
		b.Tiers = -1
	}
	if g.rng.Intn(2) == 0 {
		b.Program, b.Seed = src, seed
	} else {
		if err := g.loadTrace(r); err != nil {
			return nil, err
		}
		b.Execution = r.json
	}
	b.All = b.Rel == ""
	req, err := g.analyze(b, base)
	if err != nil {
		return nil, err
	}
	req.rename = rename
	return req, nil
}

var labelRE = regexp.MustCompile(`(?m)^(\s*)([A-Za-z_][A-Za-z0-9_]*):(\s)`)

// relabel renames the first label of a program to label_u<uid>. It returns
// the new source and the event-name prefixes {new, old} that map the
// renamed execution's events back onto the original's.
func relabel(src string, uid int) (string, [2]string) {
	m := labelRE.FindStringSubmatchIndex(src)
	label := src[m[4]:m[5]]
	renamed := fmt.Sprintf("%s_u%d", label, uid)
	return src[:m[4]] + renamed + src[m[5]:], [2]string{renamed + ":", label + ":"}
}

// seedPrograms are the programs of the fixed async jobs that pre-seed the
// server's state directory.
func (g *mixGen) seedPrograms() []string {
	return append([]string{heavyProgram}, g.small...)
}

// fast builds a planner-decided request: the handshake shape under fresh
// labels, so every one is a cache miss that the fast lane serves.
func (g *mixGen) fast() (*request, error) {
	g.uid++
	src := fmt.Sprintf("sem s = 0\nproc sender {\n    a%d: skip\n    V(s)\n}\nproc receiver {\n    P(s)\n    b%d: skip\n}\n", g.uid, g.uid)
	r, err := g.resolve(src, 1)
	if err != nil {
		return nil, err
	}
	return g.analyze(analyzeBody{Program: src, All: true}, r)
}

func (g *mixGen) analyze(b analyzeBody, r *localRun) (*request, error) {
	want, err := g.oracleFor(r, b.IgnoreData)
	if err != nil {
		return nil, err
	}
	kinds := core.AllRelKinds
	if b.Rel != "" {
		k, err := core.ParseRelKind(b.Rel)
		if err != nil {
			return nil, err
		}
		kinds = []core.RelKind{k}
	}
	body, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	return &request{path: "/v1/analyze", body: body, want: want, kinds: kinds}, nil
}

// schedule lays out one rung's open-loop schedule: requests evenly spaced
// at rate for dur, drawn from the mix in shuffled blocks.
func (g *mixGen) schedule(rate float64, rung int, dur time.Duration, firstIdx int) ([]*request, error) {
	var block []string
	for class, n := range mixBlock {
		for i := 0; i < n; i++ {
			block = append(block, class)
		}
	}
	sort.Strings(block)
	var out []*request
	var pending []int // async submissions not yet polled
	var order []string
	gap := time.Duration(float64(time.Second) / rate)
	for t := time.Duration(0); t < dur; t += gap {
		if len(order) == 0 {
			order = append([]string(nil), block...)
			g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		class := order[0]
		order = order[1:]
		req, err := g.pick(class, out, &pending, t)
		if err != nil {
			return nil, err
		}
		req.idx, req.rung, req.due = firstIdx+len(out), rung, t
		if req.class == "async" {
			for i := 0; i < mixBlock["poll"]/mixBlock["async"]; i++ {
				pending = append(pending, len(out))
			}
		}
		out = append(out, req)
	}
	for _, req := range out {
		if repeatable(req) {
			g.earlier = append(g.earlier, req)
		}
	}
	return out, nil
}

// repeatable reports whether a cache request may repeat req: a sync
// analysis that was not itself a repeat.
func repeatable(req *request) bool {
	return req.class != "async" && req.class != "poll" && req.class != "cache"
}

// pick builds one request of a class. A repeat needs an earlier request
// old enough to have finished, and a poll an earlier async submission; the
// first moments of a schedule fall back to a fast request.
func (g *mixGen) pick(class string, prior []*request, pending *[]int, now time.Duration) (*request, error) {
	var req *request
	var err error
	switch class {
	case "fast":
		req, err = g.fast()
	case "small":
		req, err = g.miss(g.small[g.rng.Intn(len(g.small))], false, false)
	case "heavy":
		req, err = g.miss(heavyProgram, false, true)
	case "async":
		req, err = g.miss(heavyProgram, true, true)
	case "cache":
		cands := g.earlier
		for _, p := range prior {
			if repeatable(p) && now-p.due >= 500*time.Millisecond {
				cands = append(cands[:len(cands):len(cands)], p)
			}
		}
		if len(cands) == 0 {
			class = "fast"
			req, err = g.fast()
			break
		}
		c := *cands[g.rng.Intn(len(cands))]
		req = &c
	case "poll":
		if len(*pending) == 0 || now-prior[(*pending)[0]].due < 300*time.Millisecond {
			class = "fast"
			req, err = g.fast()
			break
		}
		req = &request{pollOf: prior[(*pending)[0]].idx}
		*pending = (*pending)[1:]
	}
	if err != nil {
		return nil, err
	}
	req.class = class
	return req, nil
}

// server is one eventorderd child process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been reaped
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots eventorderd on a loopback port over stateDir and waits
// until /healthz answers 200. The server's log goes to /dev/null: a log
// file would put the disk's write-back stalls into the measured latencies.
func startServer(cfg config, stateDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	s.cmd = exec.Command(cfg.eventorderd,
		"-addr", s.addr,
		"-workers", strconv.Itoa(cfg.workers),
		"-state-dir", stateDir)
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		// Reaped here; stop waits on exited instead of calling Wait.
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("eventorderd exited during boot: %v", s.cmd.ProcessState)
		default:
		}
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("eventorderd not healthy after 30s")
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after 15s, and
// waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) metrics() (metricsSnapshot, error) {
	var m metricsSnapshot
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
