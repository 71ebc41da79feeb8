package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"monster/internal/clock"
)

// clk is the clock every measurement is read from. The benchmark
// times real elapsed work, so it is the real clock, held as a
// clock.Clock like everywhere else in the repository.
var clk = clock.NewReal()

func since(t time.Time) time.Duration { return clk.Now().Sub(t) }

// Span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the index of the span that caused this
// one in the recorder's list, or -1 for the operation's root.
type Span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. It is recorded
// from the benchmark's side of each call into a layer, so it adds no
// code to the program under test. Not safe for concurrent use: each
// goroutine that traces owns a Recorder.
type Recorder struct {
	epoch time.Time
	Spans []Span
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: clk.Now()} }

// Add records a span and returns its index, for use as a Parent.
func (r *Recorder) Add(name string, op, parent int, start, end time.Time) int {
	r.Spans = append(r.Spans, Span{
		Name: name, Op: op, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.Spans) - 1
}

// Merge appends another recorder's spans, shifting their operation ids
// by opOffset so the two recorders' operations stay apart.
func (r *Recorder) Merge(other *Recorder, opOffset int) {
	base, shift := len(r.Spans), other.epoch.Sub(r.epoch).Nanoseconds()
	for _, sp := range other.Spans {
		sp.Op += opOffset
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		sp.Start += shift
		sp.End += shift
		r.Spans = append(r.Spans, sp)
	}
}

// SelfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are
// merged first so time two of them share is subtracted once, and a
// child is clipped to its parent's interval.
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// LayerShare is one layer's part of an operation.
type LayerShare struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`    // median self time per operation
	Share float64 `json:"share"` // Ms as a share of the operation
}

// Shares folds spans into one row per span name: the median, over
// operations, of the self time spent under that name, as a share of
// opMs (the median wall time of the operation measured from outside).
// The last row, "unaccounted", is what no span explains.
func Shares(spans []Span, opMs float64) []LayerShare {
	self := SelfTimes(spans)
	perOp := make(map[string]map[int]float64)
	var order []string
	for i, s := range spans {
		m, ok := perOp[s.Name]
		if !ok {
			m = make(map[int]float64)
			perOp[s.Name] = m
			order = append(order, s.Name)
		}
		m[s.Op] += float64(self[i]) / 1e6
	}
	var out []LayerShare
	total := 0.0
	for _, name := range order {
		vals := make([]float64, 0, len(perOp[name]))
		for _, v := range perOp[name] {
			vals = append(vals, v)
		}
		ms := Median(vals)
		total += ms
		out = append(out, LayerShare{Layer: name, Ms: ms})
	}
	out = append(out, LayerShare{Layer: "unaccounted", Ms: opMs - total})
	for i := range out {
		if opMs > 0 {
			out[i].Share = out[i].Ms / opMs
		}
	}
	return out
}

// WriteFile writes the spans as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
