package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Each workload fixes its tail percentile: the highest that keeps at least
// ten samples beyond it in a normal run. A percentile chosen per run instead
// would jump whenever a faster run crossed a sample-count threshold. The
// report records the samples beyond.
const (
	matrixTailPct = 70   // about 36–45 ops per run: 10–13 beyond
	decideTailPct = 98.5 // about 740–1100 ops per run: 11–17 beyond
	serveTailPct  = 99   // 1200 requests at the nominal rung: 12 beyond
)

// latencies summarizes a sample of op latencies.
type latencies struct {
	p50, tail float64 // milliseconds
	tailPct   float64
	n         int
}

func summarize(samples []time.Duration, tailPct float64) latencies {
	if len(samples) == 0 {
		return latencies{}
	}
	ms := sortedMs(samples)
	return latencies{p50: percentile(ms, 50), tail: percentile(ms, tailPct), tailPct: tailPct, n: len(ms)}
}

func (l latencies) info() map[string]any {
	return map[string]any{"p50_ms": l.p50, "tail_ms": l.tail, "tail_percentile": l.tailPct,
		"samples": l.n, "samples_beyond_tail": beyond(l.n, l.tailPct)}
}

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = msOf(d)
	}
	sort.Float64s(ms)
	return ms
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// epsilon keeps float error in p/100·n (99.9% of 10000 is 9990.000…02)
// from pushing the rank up by one.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// beyond counts the samples ranked above the nearest-rank percentile p.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// weighted is a value with a weight, for weightedMedian.
type weighted struct{ v, w float64 }

// weightedMedian returns the value at which half of the total weight lies
// on either side.
func weightedMedian(xs []weighted) float64 {
	s := append([]weighted(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total, acc float64
	for _, x := range s {
		total += x.w
	}
	for _, x := range s {
		acc += x.w
		if acc >= total/2 {
			return x.v
		}
	}
	return 0
}

// setup is a library workload's set-up time in seconds (the median over
// reps) with the median reduction build and core.New times in it.
type setup struct{ secs, buildMs, newMs float64 }

// setupReps is how many samples of a library workload's set-up are taken;
// setup_s is the median.
const setupReps = 51

// setupWarmReps untimed samples come first: a process that has just
// started runs its first set-ups slowly, on cold caches and a cold CPU.
const setupWarmReps = 10

// setupSampleMin is the shortest time one set-up sample measures: a sample
// repeats the set-up back to back until this much time has passed and
// reports the mean, so that a set-up well under a millisecond long is not
// timed alone.
const setupSampleMin = 5 * time.Millisecond

// timeSetup takes setupReps samples of a workload's set-up and returns the
// median, in seconds per set-up. Each sample starts from a freshly
// collected heap, so no sample pays for collecting the garbage of the one
// before.
func timeSetup(fn func() error) (float64, error) {
	var ts []float64
	for r := -setupWarmReps; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0) < setupSampleMin {
			if err := fn(); err != nil {
				return 0, err
			}
			n++
		}
		if r >= 0 {
			ts = append(ts, time.Since(t0).Seconds()/float64(n))
		}
	}
	return median(ts), nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads VmHWM (the resident-set high-water mark) of a process
// from /proc; pid "self" names the calling process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// procCPU reads a process's CPU time, user plus system over all its
// threads, from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at field 3,
	// so utime (field 14) and stime (field 15) are the 12th and 13th.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
