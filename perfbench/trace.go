package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// (a grid, a request, a walk step) share Op; Parent is the span that
// caused this one (0 for an op's root span). Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped instead of kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span // guarded by mu
	dropped int64  // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span. On a nil tracer it returns a no-op handle with ID 0.
func (t *tracer) begin(name, layer string, op, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name, Layer: layer,
		Start: int64(time.Since(t.epoch)),
	}}
}

// id returns the span's identifier (0 when untraced).
func (o openSpan) id() int64 { return o.s.ID }

// end stamps the span's end time and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.add(o.s)
}

// add records a finished span, for spans whose times the caller measured.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's self time in seconds, summed over spans,
// and the number of ops (root spans). A span's self time is its duration
// minus the part of its interval its child spans cover; children that run
// concurrently are merged so overlapping time is not subtracted twice.
func selfTimes(spans []span) (map[string]float64, int) {
	children := make(map[int64][]span)
	ops := 0
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		covered := coverage(s, children[s.ID])
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self, ops
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// durations returns the durations in seconds of the spans with the given
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfDurations returns the self times in seconds of the spans with the
// given name.
func selfDurations(spans []span, name string) []float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-coverage(s, children[s.ID]))/1e9)
		}
	}
	return out
}

// traceLayers are the layer names spans carry, in stack order.
var traceLayers = []string{"bench", "net", "serve", "spec", "core", "market", "approx"}

// finishTrace reports the traced phase: self time per layer per op, the
// span count, and the tracing overhead (traced op median over the untraced
// phase's). It also writes the spans out as JSON lines.
func (rc *runCtx) finishTrace(name string, t *tracer, tracedOps []float64) error {
	spans := t.snapshot()
	self, ops := selfTimes(spans)
	for _, l := range traceLayers {
		if ops > 0 {
			rc.layer["trace.self."+l+"_ms"] = self[l] * 1e3 / float64(ops)
		}
	}
	rc.layer["trace.spans"] = float64(len(spans))
	if u, tr := median(rc.ops), median(tracedOps); u > 0 && tr > 0 {
		rc.layer["trace.overhead_pct"] = (tr/u - 1) * 100
	}
	rc.samples["traced_ops"] = len(tracedOps)
	t.mu.Lock()
	rc.samples["spans_dropped"] = int(t.dropped)
	t.mu.Unlock()
	return writeSpans(filepath.Join(resultsDir(rc.root), name+"-spans.jsonl"), spans)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
