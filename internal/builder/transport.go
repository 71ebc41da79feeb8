package builder

import (
	"bytes"
	"compress/zlib"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"monster/internal/clock"
)

// defaultLevel is the deflate level of a response whose consumer names
// none (zlevel absent or 0, Compress(…, 0)): the fastest level whose
// wire bytes on the dash-6h and scan-72h bodies are no more than level
// 6 made of the timestamp-per-sample body they replace. The measured
// level 1–9 curve is in EXPERIMENTS.md, "Columnar to the wire".
const defaultLevel = 4

// Encode renders a Response as its JSON wire format.
func Encode(resp *Response) ([]byte, error) {
	var e encoder
	e.response(resp)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// Decode parses the JSON wire format back into a Response. A series
// arrives as {"times":[…],"values":[…]} or, when its timestamps are
// the buckets of the response's interval, as {"start":t0,"values":[…]}
// with time[i] = t0 + i·interval; both decode to the same SeriesData.
func Decode(data []byte) (*Response, error) {
	resp := new(Response)
	// The outer Nodes shadows Response.Nodes: the series decode into
	// their wire shape, everything else straight into resp.
	wire := struct {
		*Response
		Nodes []struct {
			NodeID  string `json:"node_id"`
			Metrics map[string]struct {
				Start  *int64    `json:"start"`
				Times  []int64   `json:"times"`
				Values []float64 `json:"values"`
			} `json:"metrics"`
		} `json:"nodes"`
	}{Response: resp}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("builder: decode response: %w", err)
	}
	if wire.Nodes != nil {
		resp.Nodes = make([]NodeSeries, len(wire.Nodes))
	}
	for i, n := range wire.Nodes {
		resp.Nodes[i].NodeID = n.NodeID
		if n.Metrics != nil {
			resp.Nodes[i].Metrics = make(map[string]SeriesData, len(n.Metrics))
		}
		for name, s := range n.Metrics {
			sd := SeriesData{Times: s.Times, Values: s.Values}
			if s.Start != nil {
				if s.Times != nil || resp.Interval <= 0 {
					return nil, fmt.Errorf("builder: decode response: node %q series %q: start needs a positive interval and no times", n.NodeID, name)
				}
				sd.Times = make([]int64, len(s.Values))
				for j := range sd.Times {
					sd.Times[j] = *s.Start + int64(j)*resp.Interval
				}
			}
			resp.Nodes[i].Metrics[name] = sd
		}
	}
	return resp, nil
}

// Per-level pools of zlib writers: a response is deflated on every
// request, and a zlib.Writer's allocation (window plus hash chains,
// ~1.3 MB) dwarfs the data it compresses.
var zlibWriters [10]sync.Pool

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// deflate runs fill against a pooled zlib.Writer that compresses into
// dst at level (0 = defaultLevel), then ends the stream.
func deflate(dst io.Writer, level int, fill func(io.Writer) error) error {
	if level < 0 || level > 9 {
		return fmt.Errorf("builder: compression level %d out of range [0,9]", level)
	}
	if level == 0 {
		level = defaultLevel
	}
	w, _ := zlibWriters[level].Get().(*zlib.Writer)
	if w != nil {
		w.Reset(dst)
	} else {
		var err error
		if w, err = zlib.NewWriterLevel(dst, level); err != nil {
			return fmt.Errorf("builder: zlib writer: %w", err)
		}
	}
	if err := fill(w); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("builder: compress: %w", err)
	}
	zlibWriters[level].Put(w)
	return nil
}

// Compress zlib-compresses a response body — the paper's transport
// optimization (Fig 18). Level 0 selects the server's default level;
// 1–9 are the explicit speed/ratio trade-offs.
func Compress(data []byte, level int) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	err := deflate(buf, level, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// writeBody is the serving path from Response to wire bytes: the
// append encoder runs in chunks — through a pooled deflate writer when
// deflated is set — into dst, so the uncompressed body never exists
// whole. It fills in st's byte counts and its encode and compress
// times: deflate's share is what the encoder spent waiting in Write,
// plus ending the stream. After an error dst holds nothing to send.
func writeBody(dst *bytes.Buffer, resp *Response, deflated bool, level int, clk clock.Clock, st *Stats) error {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	*e = encoder{buf: e.buf[:0], keys: e.keys[:0], w: dst, clk: clk}
	t0 := clk.Now()
	if !deflated {
		e.response(resp)
		st.BytesRaw, st.EncodeTime = e.n, clk.Now().Sub(t0)
		return e.err
	}
	err := deflate(dst, level, func(zw io.Writer) error {
		e.w = zw
		e.response(resp)
		st.EncodeTime = clk.Now().Sub(t0) - e.wt
		return e.err
	})
	st.CompressTime = clk.Now().Sub(t0) - st.EncodeTime
	st.BytesRaw, st.BytesCompressed = e.n, int64(dst.Len())
	return err
}

// Decompress reverses Compress.
func Decompress(data []byte) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("builder: decompress: %w", err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("builder: decompress: %w", err)
	}
	return out, nil
}

// CompressionRatio is compressed size over raw size (the Fig 18
// metric; ~0.05 for monitoring JSON).
func CompressionRatio(raw, compressed []byte) float64 {
	if len(raw) == 0 {
		return 0
	}
	return float64(len(compressed)) / float64(len(raw))
}
