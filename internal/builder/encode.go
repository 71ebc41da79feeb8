package builder

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"monster/internal/clock"
)

// encodeChunk bounds what the encoder holds before handing it on:
// enough for deflate to see whole series, never the whole body.
const encodeChunk = 32 << 10

// encoder appends a Response's wire JSON to buf and, when w is set,
// hands it on in chunks of at most encodeChunk bytes (a longer string
// or the job tables aside). The bytes are encoding/json's for the
// Response struct — field order, omitempty, sorted map keys, string
// escaping, float format — except that a series whose timestamps are
// the buckets of the response's interval is written
// {"start":t0,"values":[…]}.
type encoder struct {
	buf  []byte
	keys []string      // one node's metric names, sorted
	w    io.Writer     // nil: the whole document stays in buf
	clk  clock.Clock   // times w; set with w
	n    int64         // bytes handed to w
	wt   time.Duration // time spent inside w.Write
	err  error         // first failure
}

var encoderPool = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, encodeChunk)} }}

// flush hands the pending bytes to w.
func (e *encoder) flush() {
	if e.w == nil {
		return
	}
	if e.err == nil {
		t0 := e.clk.Now()
		n, err := e.w.Write(e.buf)
		e.wt += e.clk.Now().Sub(t0)
		e.n += int64(n)
		e.err = err
	}
	e.buf = e.buf[:0]
}

// room flushes when the next number might not fit the chunk.
func (e *encoder) room() {
	if len(e.buf) > encodeChunk-32 {
		e.flush()
	}
}

func (e *encoder) lit(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// json appends v as encoding/json renders it: any string that needs
// escaping, and the job tables, small beside the series.
func (e *encoder) json(v any) {
	b, err := json.Marshal(v)
	if err != nil && e.err == nil {
		e.err = err
	}
	e.buf = append(e.buf, b...)
}

// str appends s quoted. Printable ASCII outside encoding/json's
// escaped set is copied; anything else is left to its rules.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.json(s)
			return
		}
	}
	e.buf = append(append(append(e.buf, '"'), s...), '"')
}

// float appends f in encoding/json's format: shortest round-trip
// digits, exponent form below 1e-6 and from 1e21 with a two-digit
// exponent trimmed to one. A non-finite value has no JSON form.
func (e *encoder) float(f float64) {
	abs := math.Abs(f)
	switch {
	case math.IsNaN(f) || math.IsInf(f, 0):
		if e.err == nil {
			e.err = fmt.Errorf("builder: encode response: unsupported value: %v", f)
		}
	case abs != 0 && (abs < 1e-6 || abs >= 1e21):
		e.buf = strconv.AppendFloat(e.buf, f, 'e', -1, 64)
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	case abs < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)):
		// Whole numbers, most of what a BMC reports: the same digits,
		// without the shortest-representation search.
		e.buf = strconv.AppendInt(e.buf, int64(f), 10)
	default:
		e.buf = strconv.AppendFloat(e.buf, f, 'f', -1, 64)
	}
}

func (e *encoder) response(r *Response) {
	e.lit(`{"start":`)
	e.int(r.Start)
	e.lit(`,"end":`)
	e.int(r.End)
	e.lit(`,"interval":`)
	e.int(r.Interval)
	if r.Aggregate != "" {
		e.lit(`,"aggregate":`)
		e.str(r.Aggregate)
	}
	if r.Nodes == nil {
		e.lit(`,"nodes":null`)
	} else {
		e.lit(`,"nodes":[`)
		for i := range r.Nodes {
			if i > 0 {
				e.lit(",")
			}
			e.node(&r.Nodes[i], r.Interval)
		}
		e.lit("]")
	}
	if len(r.Jobs) > 0 {
		e.lit(`,"jobs":`)
		e.json(r.Jobs)
	}
	if len(r.NodeJobs) > 0 {
		e.lit(`,"node_jobs":`)
		e.json(r.NodeJobs)
	}
	e.lit("}")
	e.flush()
}

func (e *encoder) node(n *NodeSeries, interval int64) {
	e.lit(`{"node_id":`)
	e.str(n.NodeID)
	if n.Metrics == nil {
		e.lit(`,"metrics":null}`)
		return
	}
	e.keys = e.keys[:0]
	for k := range n.Metrics {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	e.lit(`,"metrics":{`)
	for i, k := range e.keys {
		if i > 0 {
			e.lit(",")
		}
		e.str(k)
		e.lit(":")
		e.series(n.Metrics[k], interval)
	}
	e.lit("}}")
}

// bucketed reports whether sd's timestamps are exactly t0 + i·interval
// — a GROUP BY time answer with no empty bucket — so that start and
// the value count say all of them. The arithmetic wraps as Decode's
// does, which makes the test exact for every int64.
func bucketed(sd SeriesData, interval int64) bool {
	if interval <= 0 || len(sd.Times) == 0 || len(sd.Times) != len(sd.Values) {
		return false
	}
	for i, t := range sd.Times {
		if t != sd.Times[0]+int64(i)*interval {
			return false
		}
	}
	return true
}

func (e *encoder) series(sd SeriesData, interval int64) {
	switch {
	case bucketed(sd, interval):
		e.lit(`{"start":`)
		e.int(sd.Times[0])
	case sd.Times == nil:
		e.lit(`{"times":null`)
	default:
		e.lit(`{"times":[`)
		for i, t := range sd.Times {
			if i > 0 {
				e.lit(",")
			}
			e.int(t)
			e.room()
		}
		e.lit("]")
	}
	if sd.Values == nil {
		e.lit(`,"values":null}`)
		return
	}
	e.lit(`,"values":[`)
	for i, v := range sd.Values {
		if i > 0 {
			e.lit(",")
		}
		e.float(v)
		e.room()
	}
	e.lit("]}")
}
