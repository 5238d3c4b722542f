package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the recorder was created; Parent is the index of
// the enclosing span (-1 for a root); Req ties together the spans of one
// benchmark operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// layer is the part of a span name before the first dot: "sock.send"
// belongs to sock.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per call.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *spanRecorder) begin(name string, parent int, req uint64) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (the handoff
// phases Upgrade reports as durations) and returns its id.
func (r *spanRecorder) add(name string, start, end time.Time, parent int, req uint64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
		Parent: parent, Req: req,
	})
	return len(r.spans) - 1
}

// call wraps fn in a span.
func (r *spanRecorder) call(name string, parent int, req uint64, fn func() error) error {
	id := r.begin(name, parent, req)
	err := fn()
	r.end(id)
	return err
}

// snapshot returns the closed spans; spans still open are dropped.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	remap := make([]int, len(r.spans))
	for i, s := range r.spans {
		remap[i] = -1
		if s.End < 0 {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = remap[s.Parent]
		}
		remap[i] = len(out)
		out = append(out, s)
	}
	return out
}

// durations returns the durations of every span named name.
func durations(spans []span, name string) summary {
	var d []time.Duration
	for _, s := range spans {
		if s.Name == name {
			d = append(d, time.Duration(s.End-s.Start))
		}
	}
	return summarize(d)
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of its interval covered by its children. Parents precede their children
// in spans (a child is opened or added after its parent).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		self := s.End - s.Start - covered(children[i], s.Start, s.End)
		out[s.layer()] += time.Duration(self)
	}
	return out
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	c := append([][2]int64(nil), iv...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	cur := lo
	for _, x := range c {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the spans and the per-layer self times as one JSON
// document.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	selfMS := make(map[string]float64, len(self))
	for k, v := range self {
		selfMS[k] = float64(v) / float64(time.Millisecond)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{selfMS, spans}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
