package builder

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// seedPoint is one Reading sample of a (node, metric) series.
func seedPoint(node, measurement, label string, ts int64, v float64) []tsdb.Point {
	return []tsdb.Point{{
		Measurement: measurement,
		Tags:        tsdb.Tags{{Key: "NodeId", Value: node}, {Key: "Label", Value: label}},
		Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(v)},
		Time:        ts,
	}}
}

// gridResponse is a bucketed answer of the dashboard's shape: nodes ×
// the ten default metrics × buckets five-minute maxima, no gaps.
func gridResponse(nodes, buckets int) *Response {
	resp := &Response{Start: testStart.Unix(), Interval: 300, Aggregate: "max"}
	resp.End = resp.Start + int64(buckets)*resp.Interval
	for n := 0; n < nodes; n++ {
		ns := NodeSeries{NodeID: fmt.Sprintf("10.101.%d.%d", n/60+1, n%60+1), Metrics: make(map[string]SeriesData)}
		for m, metric := range DefaultMetrics() {
			sd := SeriesData{Times: make([]int64, buckets), Values: make([]float64, buckets)}
			for i := range sd.Times {
				sd.Times[i] = resp.Start + int64(i)*resp.Interval
				sd.Values[i] = 40 + float64(n) + float64((i*7+m*13)%97)/8
			}
			ns.Metrics[metric.Name()] = sd
		}
		resp.Nodes = append(resp.Nodes, ns)
	}
	return resp
}

// TestEncodeDropsRegularTimestamps pins the wire form: a gapless
// bucketed series carries start and no times, a gappy or raw one keeps
// its times, and both come back from Decode as they went in.
func TestEncodeDropsRegularTimestamps(t *testing.T) {
	resp := &Response{Start: 1000, End: 2500, Interval: 300, Aggregate: "max", Nodes: []NodeSeries{{
		NodeID: "n1",
		Metrics: map[string]SeriesData{
			"Power/Gappy":   {Times: []int64{1200, 1500, 2100}, Values: []float64{1, 2, 3}},
			"Power/Regular": {Times: []int64{1200, 1500, 1800}, Values: []float64{1.5, -0.25, 3}},
			"Power/Single":  {Times: []int64{1200}, Values: []float64{7}},
		},
	}}}
	data, err := Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"start":1000,"end":2500,"interval":300,"aggregate":"max","nodes":[{"node_id":"n1","metrics":{` +
		`"Power/Gappy":{"times":[1200,1500,2100],"values":[1,2,3]},` +
		`"Power/Regular":{"start":1200,"values":[1.5,-0.25,3]},` +
		`"Power/Single":{"start":1200,"values":[7]}}}]}`
	if string(data) != want {
		t.Fatalf("wire form:\n got %s\nwant %s", data, want)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Fatalf("round trip changed the response: %+v", back)
	}

	resp.Interval, resp.Aggregate = 0, "" // raw samples: no step to rebuild from
	data, err = Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("raw response differs from encoding/json:\n got %s\nwant %s", data, ref)
	}
}

// TestEncodeFloatMatchesJSON walks the encoder's three number paths
// (whole numbers, plain decimals, exponent form) across their
// boundaries against encoding/json.
func TestEncodeFloatMatchesJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 273, -14040, 0.25, 100.5, 1e-6, 9.9e-7, 1e-7, 1.5e-10,
		1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), 1e15, 1e16, 123456789012345678, 1 << 62, 1e20, 9.99e20, 1e21, 1.5e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308}
	for i := 0; i < 2000; i++ { // a spread of magnitudes, whole and fractional
		f := math.Ldexp(float64(i*7919%1000)+float64(i%4)/4, i%120-60)
		floats = append(floats, f, -f, math.Trunc(f))
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var e encoder
		if e.float(f); e.err != nil || string(e.buf) != string(want) {
			t.Errorf("float(%v) = %q (%v), encoding/json writes %q", f, e.buf, e.err, want)
		}
	}
}

func TestEncodeRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := gridResponse(1, 3)
		resp.Nodes[0].Metrics["Power/NodePower"].Values[1] = v
		if _, err := Encode(resp); err == nil {
			t.Errorf("Encode accepted %v", v)
		}
	}
}

// TestDecodeWireForms: the compact form is refused where it cannot be
// expanded, and a body captured from the commit before the compact
// form existed still decodes to what Fetch returns.
func TestDecodeWireForms(t *testing.T) {
	for name, body := range map[string]string{
		"start beside times":       `{"start":0,"end":900,"interval":300,"nodes":[{"node_id":"a","metrics":{"P/x":{"start":0,"times":[0,300],"values":[1,2]}}}]}`,
		"start beside empty times": `{"start":0,"end":900,"interval":300,"nodes":[{"node_id":"a","metrics":{"P/x":{"start":0,"times":[],"values":[]}}}]}`,
		"start with interval 0":    `{"start":0,"end":900,"interval":0,"nodes":[{"node_id":"a","metrics":{"P/x":{"start":0,"values":[1,2]}}}]}`,
		"start without interval":   `{"start":0,"end":900,"nodes":[{"node_id":"a","metrics":{"P/x":{"start":0,"values":[1,2]}}}]}`,
	} {
		if _, err := Decode([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// interval after nodes: a JSON object is unordered.
	resp, err := Decode([]byte(`{"nodes":[{"node_id":"a","metrics":{"P/x":{"values":[1,2,3],"start":600}}}],"interval":300,"start":0,"end":1500}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Nodes[0].Metrics["P/x"]; !reflect.DeepEqual(got, SeriesData{Times: []int64{600, 900, 1200}, Values: []float64{1, 2, 3}}) {
		t.Fatalf("expanded series = %+v", got)
	}

	golden, err := os.ReadFile("testdata/parent_body.json")
	if err != nil {
		t.Fatal(err)
	}
	old, err := Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	req := stdRequest(15)
	req.IncludeJobs = true
	req.Metrics = []Metric{{Measurement: "Power", Label: "NodePower"}, {Measurement: "UGE", Label: "CPUUsage"}}
	direct, _, err := New(seedDB(t, 2, 15), Options{Concurrent: true}).Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, direct) {
		t.Fatal("parent-format body no longer decodes to the fetched response")
	}
	compact, err := Encode(direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(golden) {
		t.Fatalf("compact body is %d bytes, parent format %d", len(compact), len(golden))
	}
}

// chunkRecorder notes the size of every Write it sees.
type chunkRecorder struct {
	bytes.Buffer
	largest int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.largest = max(c.largest, len(p))
	return c.Buffer.Write(p)
}

// TestWriteResponseChunks: the streamed encoding is Encode's bytes,
// delivered in bounded pieces — for a body of many chunks with long
// raw series, and again from the same pooled encoder.
func TestWriteResponseChunks(t *testing.T) {
	resp := gridResponse(64, 72)
	raw := SeriesData{Times: make([]int64, 5000), Values: make([]float64, 5000)}
	for i := range raw.Times {
		raw.Times[i] = testStart.Unix() + int64(i)*61
		raw.Values[i] = float64(i) / 3
	}
	resp.Nodes[3].Metrics["Power/NodePower"] = raw
	want, err := Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		var rec chunkRecorder
		e := encoderPool.Get().(*encoder)
		*e = encoder{buf: e.buf[:0], keys: e.keys[:0], w: &rec, clk: clock.NewReal()}
		e.response(resp)
		encoderPool.Put(e)
		if e.err != nil {
			t.Fatal(e.err)
		}
		if e.n != int64(len(want)) || !bytes.Equal(rec.Bytes(), want) {
			t.Fatalf("round %d: streamed %d bytes, Encode made %d; equal=%t", round, e.n, len(want), bytes.Equal(rec.Bytes(), want))
		}
		if rec.largest > encodeChunk {
			t.Fatalf("round %d: a chunk of %d bytes, bound %d", round, rec.largest, encodeChunk)
		}
	}
}

// deflateGet fetches url asking for enc, with net/http's transparent
// gzip out of the way so the body is what crossed the wire.
func deflateGet(t *testing.T, url, enc string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", enc)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return resp, body
}

// TestAPIMetricsWireContract is what a consumer that is not this
// package's Client relies on: lengths, the stats header and its byte
// counts, the two encodings, and the zlevel ordering.
func TestAPIMetricsWireContract(t *testing.T) {
	srv, b := apiServer(t, 6, 90)
	req := stdRequest(90)
	direct, _, err := b.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/metrics?start=%d&end=%d&interval=5m&agg=max", srv.URL, req.Start.Unix(), req.End.Unix())

	resp, body := deflateGet(t, url, "deflate")
	if resp.Header.Get("Content-Encoding") != "deflate" {
		t.Fatalf("Content-Encoding = %q", resp.Header.Get("Content-Encoding"))
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
	if len(resp.Trailer) != 0 {
		t.Fatalf("response carries trailers: %v", resp.Trailer)
	}
	var st Stats
	if err := json.Unmarshal([]byte(resp.Header.Get(StatsHeader)), &st); err != nil {
		t.Fatalf("stats header %q: %v", resp.Header.Get(StatsHeader), err)
	}
	inflated, err := Decompress(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesRaw != int64(len(inflated)) || st.BytesCompressed != int64(len(body)) {
		t.Fatalf("stats bytes raw=%d compressed=%d, measured %d and %d", st.BytesRaw, st.BytesCompressed, len(inflated), len(body))
	}
	if st.EncodeTime <= 0 || st.CompressTime <= 0 || st.Total < st.EncodeTime+st.CompressTime {
		t.Fatalf("stats times encode=%v compress=%v total=%v", st.EncodeTime, st.CompressTime, st.Total)
	}
	got, err := Decode(inflated)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Fatal("deflated response differs from Fetch")
	}

	want, err := Encode(direct)
	if err != nil {
		t.Fatal(err)
	}
	resp, plain := deflateGet(t, url, "identity")
	if resp.Header.Get("Content-Encoding") != "" || !bytes.Equal(plain, want) || !bytes.Equal(inflated, want) {
		t.Fatalf("identity body is not Encode(resp): encoding %q, %d vs %d bytes", resp.Header.Get("Content-Encoding"), len(plain), len(want))
	}
	if err := json.Unmarshal([]byte(resp.Header.Get(StatsHeader)), &st); err != nil || st.BytesRaw != int64(len(plain)) {
		t.Fatalf("identity stats: %v, %+v", err, st)
	}

	_, fast := deflateGet(t, url+"&zlevel=1", "deflate")
	_, best := deflateGet(t, url+"&zlevel=9", "deflate")
	if len(best) > len(body) || len(fast) < len(body) {
		t.Fatalf("wire bytes: zlevel=1 %d, default %d, zlevel=9 %d", len(fast), len(body), len(best))
	}
	_, named := deflateGet(t, fmt.Sprintf("%s&zlevel=%d", url, defaultLevel), "deflate")
	if !bytes.Equal(named, body) {
		t.Fatalf("zlevel=%d is not the default", defaultLevel)
	}
}

// TestAPIEncodeErrorIsClean500: a response that cannot be encoded
// fails before any header of the 200 is set.
func TestAPIEncodeErrorIsClean500(t *testing.T) {
	api := NewAPI(New(seedDB(t, 1, 5), Options{}))
	bad := gridResponse(40, 72) // several chunks are deflated before the failure
	bad.Nodes[39].Metrics["Power/NodePower"].Values[70] = math.NaN()
	for _, deflate := range []bool{false, true} {
		rec := httptest.NewRecorder()
		api.writeMetrics(rec, bad, Stats{}, deflate, 0)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("deflate=%t: status %d", deflate, rec.Code)
		}
		for _, h := range []string{"Content-Encoding", "Content-Length", StatsHeader} {
			if v := rec.Header().Get(h); v != "" {
				t.Errorf("deflate=%t: %s = %q on an error", deflate, h, v)
			}
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "NaN") {
			t.Fatalf("deflate=%t: body %q (%v)", deflate, rec.Body.String(), err)
		}
	}
}

// TestAPINonFiniteSamplesAreDropped: a NaN that reached storage (a
// direct WritePoints; the text parsers refuse one) costs its own
// sample, is counted, and the request still answers 200 — raw and
// bucketed.
func TestAPINonFiniteSamplesAreDropped(t *testing.T) {
	srv, b := apiServer(t, 3, 30)
	pt := seedPoint("10.101.1.2", "Power", "NodePower", testStart.Unix()+7*60+30, math.NaN())
	inf := seedPoint("10.101.1.3", "Power", "NodePower", testStart.Unix()+8*60+30, math.Inf(1))
	if err := b.DB().WritePoints(append(pt, inf...)); err != nil {
		t.Fatal(err)
	}
	start, end := testStart.Unix(), testStart.Add(30*time.Minute).Unix()
	for _, tc := range []struct {
		query   string
		dropped int
	}{
		{"", 2},                     // raw: the two samples themselves
		{"&interval=5m&agg=sum", 2}, // a sum over a bucket holding NaN or +Inf is not finite
		{"&interval=5m&agg=count", 0},
	} {
		resp, body := deflateGet(t, fmt.Sprintf("%s/v1/metrics?start=%d&end=%d&metrics=Power/NodePower%s", srv.URL, start, end, tc.query), "identity")
		var st Stats
		if err := json.Unmarshal([]byte(resp.Header.Get(StatsHeader)), &st); err != nil {
			t.Fatal(err)
		}
		if st.NonFiniteDropped != tc.dropped {
			t.Errorf("%q: non_finite_dropped = %d, want %d", tc.query, st.NonFiniteDropped, tc.dropped)
		}
		dec, err := Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec.Nodes) != 3 {
			t.Fatalf("%q: %d nodes", tc.query, len(dec.Nodes))
		}
		for _, n := range dec.Nodes {
			sd := n.Metrics["Power/NodePower"]
			if len(sd.Values) == 0 {
				t.Errorf("%q: node %s lost its finite samples", tc.query, n.NodeID)
			}
			for _, v := range sd.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%q: node %s answered %v", tc.query, n.NodeID, v)
				}
			}
		}
	}
}

// TestWriteBodyAllocs: with warm pools the fused encode + deflate of a
// dashboard-sized response (640 series, 46,080 values) allocates
// nothing per value or per series. The measured count is 3, from
// starting the goroutines that deflate its pieces; the bound leaves
// room for the race detector's sync.Pool, which drops a quarter of its
// Puts, so that a run now and then rebuilds a writer, a buffer or the
// encoder.
func TestWriteBodyAllocs(t *testing.T) {
	resp := gridResponse(64, 72)
	clk := clock.NewReal()
	var dst bytes.Buffer
	run := func() {
		dst.Reset()
		var st Stats
		if err := writeBody(&dst, resp, true, 0, clk, &st); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the encoder and deflate pools, size dst
	if allocs := testing.AllocsPerRun(20, run); allocs > 32 {
		t.Fatalf("fused encode+deflate: %.0f allocations per response", allocs)
	}
}
