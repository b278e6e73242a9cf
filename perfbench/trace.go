package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the id of the enclosing span, or -1 for an op's root.
type span struct {
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so workloads call it unconditionally and the
// untraced run pays only the nil checks.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans), Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// record adds a finished span of known length ending at end, for timings the
// program reports after the fact (MatrixOpts.OnPhase, envelope phases).
func (t *tracer) record(name string, op int64, parent int, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	e := end.Sub(t.t0)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans), Parent: parent, Start: e - d, End: e})
}

// selfTimes returns, per span name, the total duration minus the part of
// each span's interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// coverFrac is the share of the op roots' wall time covered by leaf spans
// (spans with no children of their own).
func (t *tracer) coverFrac() float64 {
	hasChild := map[int]bool{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var root, leaf time.Duration
	for _, s := range t.spans {
		switch {
		case s.Parent < 0:
			root += s.End - s.Start
		case !hasChild[s.ID]:
			leaf += s.End - s.Start
		}
	}
	return ratio(float64(leaf), float64(root))
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, cur), min(k.End, parent.End)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
