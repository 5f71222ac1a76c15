package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run. Spans of one operation
// share OpID; Parent is the index of the enclosing span in the trace, or
// -1 for a span nothing encloses. Times are nanoseconds since the trace
// began.
type Span struct {
	Name    string `json:"name"`
	OpID    int64  `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer collects spans in memory; nothing is written until WriteFile.
// It is safe for the benchmark's concurrent clients. A nil *Tracer
// records nothing, so untraced runs share the traced code path.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty trace whose clock begins now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Add records a finished span and returns its index, for use as the
// Parent of spans it encloses.
func (t *Tracer) Add(name string, opID int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Name: name, OpID: opID, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the trace as a JSON array of spans, creating the
// directory when needed.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once; a child reaching outside its parent is clipped).
func SelfTimes(spans []Span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// LayerSelfTime sums SelfTimes by span name: how long each layer was
// busy with its own work over the whole trace.
func LayerSelfTime(spans []Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range SelfTimes(spans) {
		out[spans[i].Name] += time.Duration(d)
	}
	return out
}
