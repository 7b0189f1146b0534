package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a
// Table 3 row, a replayed request) share Op; Parent is the ID of the
// enclosing span, or -1 for the operation's root.
type span struct {
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced path runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// selfMS returns each span's self time in milliseconds, keyed by span
// name: its duration minus the part of its interval that its children
// cover.
func (t *tracer) selfMS() map[string][]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = append(out[s.Name], ms(self))
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - cur
			cur, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	return total + curEnd - cur
}

// totalMS returns the durations of every span named name.
func (t *tracer) totalMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
