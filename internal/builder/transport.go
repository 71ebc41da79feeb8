package builder

import (
	"bytes"
	"cmp"
	"compress/flate"
	"compress/zlib"
	"encoding/json"
	"fmt"
	"hash"
	"hash/adler32"
	"io"
	"runtime"
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

// deflateChunk is the size of the pieces a body is deflated in, each
// on its own goroutine (the scheme pigz uses). A one-piece body comes
// out byte for byte as zlib.Writer's; each seam costs wire bytes, 2 %
// on the benchmark's dashboard bodies at 96 KB and 3 % at 64 KB.
const deflateChunk = 96 << 10

// zlibHeader is compress/zlib's RFC 1950 header for each level.
var zlibHeader = [10]string{1: "\x78\x01", 2: "\x78\x5e", 3: "\x78\x5e", 4: "\x78\x5e", 5: "\x78\x5e",
	6: "\x78\x9c", 7: "\x78\xda", 8: "\x78\xda", 9: "\x78\xda"}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Pools of raw-deflate writers, one per level (a writer's window and
// hash chains, ~1 MB, dwarf the piece it deflates), of piece buffers
// and of deflaters.
var (
	flateWriters [10]sync.Pool
	pieces       = sync.Pool{New: func() any { return new([deflateChunk]byte) }}
	deflaters    = sync.Pool{New: func() any { return &deflater{sum: adler32.New()} }}
)

// deflater is the one deflate path, behind writeBody and Compress. It
// deflates each full deflateChunk piece of what is written to it on a
// goroutine of its own, with one of at most GOMAXPROCS writers it
// takes from the pool, so Write blocks while that many are deflating.
// Every piece but the last ends with a sync flush, which byte-aligns
// it, so finish joins the pieces in order between a zlib header and
// the Adler-32 of the whole input: one RFC 1950 stream. (With a single
// writer the pieces need no flush; see next.)
type deflater struct {
	level int
	in    []byte             // the piece being filled
	sum   hash.Hash32        // Adler-32 of the pieces handed off
	fws   chan *flate.Writer // the stream's writers not deflating
	nfw   int                // writers the stream took from the pool
	outs  []*bytes.Buffer    // the pieces handed off, deflated, in order
	wg    sync.WaitGroup
}

// newDeflater takes a pooled deflater for level (0 = defaultLevel).
func newDeflater(level int) (*deflater, error) {
	if level < 0 || level > 9 {
		return nil, fmt.Errorf("builder: compression level %d out of range [0,9]", level)
	}
	d := deflaters.Get().(*deflater)
	if procs := runtime.GOMAXPROCS(0); cap(d.fws) != procs {
		d.fws = make(chan *flate.Writer, procs)
	}
	d.level, d.in = cmp.Or(level, defaultLevel), pieces.Get().(*[deflateChunk]byte)[:0]
	d.sum.Reset()
	return d, nil
}

// Write adds p to the current piece. A full piece is handed off only
// when more bytes follow it, so the last piece is never empty.
func (d *deflater) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(d.in) == deflateChunk {
			go d.deflate(d.next(), d.in, false)
			d.in = pieces.Get().(*[deflateChunk]byte)[:0]
		}
		k := copy(d.in[len(d.in):deflateChunk], p)
		d.in, p = d.in[:len(d.in)+k], p[k:]
	}
	return n, nil
}

// next adds the current piece to the checksum and to wg, and readies
// a writer for it onto the piece's output buffer: an idle one of the
// stream's, a pooled one while the stream holds fewer than GOMAXPROCS,
// else the next to come free. A stream with a single writer
// (GOMAXPROCS 1) deflates its pieces in turn, so each goes on with the
// window and output of the one before: that stream is the serial one,
// and no piece pays the cold start that makes four independent pieces
// of a dashboard body take 13 % longer to deflate than one.
func (d *deflater) next() *flate.Writer {
	_, _ = d.sum.Write(d.in) // a hash never fails
	d.wg.Add(1)
	if cap(d.fws) == 1 && len(d.outs) == 1 {
		return <-d.fws
	}
	out := bufPool.Get().(*bytes.Buffer)
	out.Reset()
	out.Grow(deflateChunk / 4) // most pieces need no more
	d.outs = append(d.outs, out)
	var fw *flate.Writer
	if len(d.fws) > 0 || d.nfw == cap(d.fws) {
		fw = <-d.fws
	} else {
		d.nfw++
		if fw, _ = flateWriters[d.level].Get().(*flate.Writer); fw == nil {
			fw, _ = flate.NewWriter(nil, d.level) // newDeflater checked the level
		}
	}
	fw.Reset(out)
	return fw
}

// deflate raw-deflates the piece in with fw, ending with Close if it is
// the stream's last piece and otherwise, unless the stream has a
// single writer, with a sync flush. It gives in and fw back. A
// bytes.Buffer takes every write, so nothing can fail.
func (d *deflater) deflate(fw *flate.Writer, in []byte, last bool) {
	defer d.wg.Done()
	_, _ = fw.Write(in)
	if last {
		_ = fw.Close()
	} else if cap(d.fws) > 1 {
		_ = fw.Flush()
	}
	pieces.Put((*[deflateChunk]byte)(in[:deflateChunk]))
	d.fws <- fw
}

// finish deflates the last piece on the calling goroutine, waits for
// the others and then, only if err — the producer's — is nil, writes
// the stream into dst. Either way it returns err and leaves no
// goroutine it started running.
func (d *deflater) finish(dst *bytes.Buffer, err error) error {
	if err == nil {
		d.deflate(d.next(), d.in, true)
	} else {
		pieces.Put((*[deflateChunk]byte)(d.in[:deflateChunk]))
	}
	d.wg.Wait()
	for ; d.nfw > 0; d.nfw-- {
		flateWriters[d.level].Put(<-d.fws)
	}
	if err == nil {
		dst.WriteString(zlibHeader[d.level])
		for _, out := range d.outs {
			dst.Write(out.Bytes())
		}
		dst.Write(d.sum.Sum(dst.AvailableBuffer()))
	}
	for _, out := range d.outs {
		bufPool.Put(out)
	}
	clear(d.outs)
	d.outs, d.in = d.outs[:0], nil
	deflaters.Put(d)
	return err
}

// Compress zlib-compresses a response body — the paper's transport
// optimization (Fig 18) — through the deflater that serves requests.
// Level 0 selects the server's default level; 1–9 are the explicit
// speed/ratio trade-offs.
func Compress(data []byte, level int) ([]byte, error) {
	d, err := newDeflater(level)
	if err != nil {
		return nil, err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	_, _ = d.Write(data) // a deflater takes every write
	_ = d.finish(buf, nil)
	return bytes.Clone(buf.Bytes()), nil
}

// writeBody is the serving path from Response to wire bytes: the
// append encoder runs in chunks — through the deflater when deflated
// is set — into dst, so beside the encoder's chunk at most
// GOMAXPROCS + 1 pieces of the uncompressed body exist at once. It fills in st's byte
// counts and its encode and compress times: deflate's share is what
// the encoder spent waiting in Write, plus the wait for the last
// pieces. After an error dst is as it was before the call.
func writeBody(dst *bytes.Buffer, resp *Response, deflated bool, level int, clk clock.Clock, st *Stats) error {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	*e = encoder{buf: e.buf[:0], keys: e.keys[:0], w: dst, clk: clk}
	t0 := clk.Now()
	if !deflated {
		n0 := dst.Len()
		e.response(resp)
		st.BytesRaw, st.EncodeTime = e.n, clk.Now().Sub(t0)
		if e.err != nil {
			dst.Truncate(n0)
		}
		return e.err
	}
	d, err := newDeflater(level)
	if err != nil {
		return err
	}
	e.w = d
	e.response(resp)
	st.EncodeTime = clk.Now().Sub(t0) - e.wt
	err = d.finish(dst, e.err)
	st.CompressTime = clk.Now().Sub(t0) - st.EncodeTime
	st.BytesRaw, st.BytesCompressed = e.n, int64(dst.Len())
	return err
}

// maxResponseBody bounds a Metrics Builder response as a consumer
// reads it, on the wire and inflated, so a zlib bomb or an endless body
// fails that fetch, not the process's memory. Request validation sets
// no size limit of its own, so the bound is the largest response the
// paper's probes ask for: raw samples of the ten
// default metrics over 467 nodes for 72 h (Fig 16's longest window),
// with jobs. A 16-node, 3 h raw response with jobs is 1,075,592 B, 37.6
// B per point; scaled to 467 nodes and 72 h that is ~754 MB.
const maxResponseBody = 1 << 30

// Decompress reverses Compress, refusing a body that inflates past
// maxResponseBody.
func Decompress(data []byte) ([]byte, error) { return decompress(data, maxResponseBody) }

func decompress(data []byte, limit int64) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("builder: decompress: %w", err)
	}
	defer r.Close()
	out, err := readAtMost(r, limit)
	if err != nil {
		return nil, fmt.Errorf("builder: decompress: %w", err)
	}
	return out, nil
}

// readAtMost reads r to its end, or fails once it passes limit bytes.
// One byte past the limit tells a body that fits from one that was cut;
// a body over it is refused whole.
func readAtMost(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("body over %d bytes", limit)
	}
	return b, nil
}

// CompressionRatio is compressed size over raw size (the Fig 18
// metric; ~0.05 for monitoring JSON).
func CompressionRatio(raw, compressed []byte) float64 {
	if len(raw) == 0 {
		return 0
	}
	return float64(len(compressed)) / float64(len(raw))
}
