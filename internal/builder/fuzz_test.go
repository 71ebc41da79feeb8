package builder

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// fuzzValue derives a stored value from byte i of the fuzzer's stream:
// its kind, and for a float whether it is finite, follow the byte. The
// point is kind diversity, not realistic data.
func fuzzValue(data []byte, i int) tsdb.Value {
	b := data[i]
	switch {
	case b == 250:
		return tsdb.Float(math.NaN())
	case b == 251:
		return tsdb.Float(math.Inf(-1))
	}
	switch b % 4 {
	case 0:
		return tsdb.Float(float64(b))
	case 1:
		return tsdb.Int(int64(b))
	case 2:
		return tsdb.Str(string(data[:i]))
	default:
		return tsdb.Bool(b%2 == 0)
	}
}

// FuzzMergeSeries drives the builder's merge layer — newResponse,
// mergeResult, mergeJobs, mergeNodeJobs, and parseJobList — with the
// answers a real store gives to the builder's own statements, over
// adversarial data: unknown nodes, empty labels, non-float and
// non-finite values where floats are expected, fields missing from
// rows, and malformed job-list encodings. A stored row always has as
// many values as the query has columns, so ragged rows no longer occur.
// Nothing here may panic, and the series/point accounting must agree
// with what landed in the response.
func FuzzMergeSeries(f *testing.F) {
	f.Add("10.101.1.1", "NodePower", "['123-a', '456-b']", []byte{1, 2, 3, 250, 0})
	f.Add("", "", "", []byte{})
	f.Add("node-2", "CPU1Temp", "[]", []byte{5, 5, 5})
	f.Add("ghost", "Lab", "[''] ,", []byte{9})
	f.Add("10.101.1.1", "x", "['solo']", []byte{0, 255, 17, 128})

	aggs := []string{"max", "count", "last", "mean"}
	f.Fuzz(func(t *testing.T, node, label, jobList string, data []byte) {
		db := tsdb.Open(tsdb.Options{})
		write := func(p tsdb.Point) {
			if err := db.WritePoints([]tsdb.Point{p}); err != nil {
				t.Logf("point not stored: %v", err) // e.g. an empty tag value
			}
		}
		for i, b := range data {
			at := int64(i) * int64(b%7) * 60
			// A series for a node outside the request must be dropped.
			for _, n := range []string{node, "not-requested"} {
				write(tsdb.Point{Measurement: "Power", Tags: tsdb.NewTags(map[string]string{"NodeId": n, "Label": label}),
					Fields: map[string]tsdb.Value{"Reading": fuzzValue(data, i)}, Time: at})
			}
			// Job rows with a column subset each, of the kinds the
			// collector writes and, every fourth column, of another.
			fields := map[string]tsdb.Value{}
			for c, name := range jobsInfoColumns {
				switch {
				case (int(b)+c)%3 == 0:
				case (int(b)+c)%4 == 0:
					fields[name] = fuzzValue(data, i)
				case c < 3:
					fields[name] = tsdb.Str(string(data[:i]))
				case name == "Estimated":
					fields[name] = tsdb.Bool(b%2 == 0)
				default:
					fields[name] = tsdb.Int(int64(b))
				}
			}
			if len(fields) > 0 {
				write(tsdb.Point{Measurement: "JobsInfo", Tags: tsdb.NewTags(map[string]string{"JobId": label}), Fields: fields, Time: at})
			}
		}
		write(tsdb.Point{Measurement: "NodeJobs", Tags: tsdb.NewTags(map[string]string{"NodeId": node}),
			Fields: map[string]tsdb.Value{"JobList": tsdb.Str(jobList)}, Time: 1})
		write(tsdb.Point{Measurement: "NodeJobs", Tags: tsdb.NewTags(map[string]string{"NodeId": node}),
			Fields: map[string]tsdb.Value{"JobList": tsdb.Int(int64(len(jobList)))}, Time: 2})

		b := New(db, Options{Concurrent: true})
		for _, interval := range []time.Duration{5 * time.Minute, 0} {
			req := &Request{
				Start:     time.Unix(0, 0),
				End:       time.Unix(3600, 0),
				Interval:  interval,
				Aggregate: aggs[len(data)%len(aggs)],
				Nodes:     []string{node, "10.101.1.1"},
				Metrics:   []Metric{{Measurement: "Power", Label: label}},
			}
			nodes := b.resolveNodes(req)
			resp, idx := newResponse(req, nodes)
			series, points := 0, 0
			for _, tk := range b.planBatched(req, nodes) {
				res, err := db.Query(tk.stmt)
				if err != nil {
					t.Logf("statement not run: %v", err) // a quote in the label
					continue
				}
				s, p, _ := mergeResult(resp, idx, res)
				series, points = series+s, points+p
			}
			got := 0
			for _, n := range resp.Nodes {
				got += len(n.Metrics)
				for _, sd := range n.Metrics {
					if len(sd.Times) != len(sd.Values) {
						t.Fatalf("series with %d times but %d values", len(sd.Times), len(sd.Values))
					}
					if slices.ContainsFunc(sd.Values, notFinite) {
						t.Fatalf("a non-finite value reached the response: %v", sd.Values)
					}
					points -= len(sd.Times)
				}
			}
			if series != got {
				t.Fatalf("mergeResult reported %d series, response holds %d", series, got)
			}
			if points != 0 {
				t.Fatalf("mergeResult point count disagrees with response by %d", points)
			}

			if err := b.fetchJobs(context.Background(), req, resp, new(Stats)); err != nil {
				t.Fatalf("jobs queries: %v", err)
			}
			for _, nj := range resp.NodeJobs {
				for _, j := range nj.Jobs {
					if j == "" {
						t.Fatal("parseJobList let an empty job id through")
					}
				}
			}
		}
	})
}

// fuzzFloats decodes eight-byte groups as float64 bit patterns — so
// subnormals, huge and tiny magnitudes and -0 all occur — with the
// encoding/json format boundaries mixed in by position.
func fuzzFloats(data []byte) []float64 {
	special := []float64{math.Copysign(0, -1), 1e21, 1e-7, 5e-324, 123456789.125, -1e-6, 0.000001, 1e20, 273, -14040, 1<<53 - 1, 1 << 53, -(1 << 53), 1 << 62}
	out := make([]float64, 0, len(data)/8+1)
	for i := 0; i+8 <= len(data); i += 8 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = special[i/8%len(special)]
		}
		out = append(out, f)
	}
	if len(data)%8 != 0 {
		out = append(out, special[len(data)%len(special)])
	}
	return out
}

// FuzzEncodeResponse is the differential for the append encoder:
// whatever the Response, Decode(Encode(r)) is what decoding
// encoding/json's rendering of the struct gives, and with no interval
// to rebuild timestamps from the two renderings are the same bytes.
func FuzzEncodeResponse(f *testing.F) {
	f.Add("10.101.1.1", "Power/NodePower", "max", int64(300), int64(1587384000), []byte("\x00\x00\x00\x00\x00\x00Y@\x9a\x99\x99\x99\x99\x99\xb9?"))
	f.Add("a\"b\\c", "<script>&amp;", "mean", int64(60), int64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add("ctl\x01\x1f\n\t\x7f", "bad\xff\xfeutf8\xc0", "", int64(0), int64(-5), []byte{})
	f.Add("  é", "", "sum", int64(-300), int64(math.MaxInt64-600), bytes.Repeat([]byte{0xff, 0x7f}, 20))
	f.Add("", "k", "last", int64(math.MaxInt64), int64(math.MinInt64), bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, 3))
	// Thousands of values: the deflated body spans several pieces.
	many := make([]byte, 24000)
	for i := range many {
		many[i] = byte(i*131 + i>>7)
	}
	f.Add("10.101.4.17", "Thermal/CPU1Temp", "mean", int64(60), int64(1587384000), many)

	f.Fuzz(func(t *testing.T, node, label, agg string, interval, start int64, data []byte) {
		values := fuzzFloats(data)
		n := len(values)
		regular := make([]int64, n)
		gappy := make([]int64, n)
		for i := range regular {
			regular[i] = start + int64(i)*interval
			gappy[i] = regular[i]
			if i > 0 && data[i%len(data)]%3 == 0 {
				gappy[i] += interval + 1
			}
		}
		r := &Response{Start: start, End: start + 1, Interval: interval, Aggregate: agg, Nodes: []NodeSeries{
			{NodeID: node, Metrics: map[string]SeriesData{
				label:            {Times: regular, Values: values},
				label + "/gappy": {Times: gappy, Values: values},
				label + "/one":   {Times: regular[:min(n, 1)], Values: values[:min(n, 1)]},
				label + "/empty": {Times: []int64{}, Values: []float64{}},
				label + "/nil":   {},
				label + "/short": {Times: regular, Values: values[:n/2]},
			}},
			{NodeID: node + "/nometrics"},
			{NodeID: label, Metrics: map[string]SeriesData{}},
		}}
		if n%2 == 1 {
			r.Jobs = []JobRecord{
				{JobID: node, User: label, JobName: agg, Queue: node, SubmitTime: start, StartTime: interval, FinishTime: int64(n), Estimated: true, Slots: -1, NodeCount: 2},
				{JobID: label},
			}
			r.NodeJobs = []NodeJobsRecord{{NodeID: node, Time: start, Jobs: []string{label, agg, ""}}, {NodeID: label}}
		}
		if n%5 == 4 {
			r.Nodes = nil
		}

		check := func(r *Response) (enc, ref []byte) {
			enc, err := Encode(r)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			ref, err = json.Marshal(r)
			if err != nil {
				t.Fatalf("json.Marshal: %v", err)
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode(Encode): %v\n%s", err, enc)
			}
			want, err := Decode(ref)
			if err != nil {
				t.Fatalf("Decode(json.Marshal): %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Decode(Encode(r)) differs from Decode(json.Marshal(r)):\n enc %s\n ref %s", enc, ref)
			}
			var streamed, deflated bytes.Buffer
			if err := writeBody(&streamed, r, false, 0, clock.NewReal(), new(Stats)); err != nil || !bytes.Equal(streamed.Bytes(), enc) {
				t.Fatalf("writeBody (%v) differs from Encode:\n %s\n %s", err, streamed.Bytes(), enc)
			}
			if err := writeBody(&deflated, r, true, 0, clock.NewReal(), new(Stats)); err != nil {
				t.Fatalf("deflated writeBody: %v", err)
			}
			if inflated, err := Decompress(deflated.Bytes()); err != nil || !bytes.Equal(inflated, enc) {
				t.Fatalf("deflated writeBody (%v) does not inflate to Encode's %d bytes", err, len(enc))
			}
			return enc, ref
		}
		enc, ref := check(r)
		if len(enc) > len(ref) {
			t.Fatalf("compact form is longer: %d > %d bytes", len(enc), len(ref))
		}
		raw := *r
		raw.Interval = 0
		if enc, ref := check(&raw); !bytes.Equal(enc, ref) {
			t.Fatalf("with no series to compact, Encode differs from json.Marshal:\n got %s\nwant %s", enc, ref)
		}
	})
}
