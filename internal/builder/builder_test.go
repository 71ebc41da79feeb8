package builder

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"monster/internal/tsdb"
)

var testStart = time.Date(2020, 4, 20, 12, 0, 0, 0, time.UTC)

// seedDB writes `minutes` of per-minute samples for every default
// metric on `nodes` nodes, plus job correlation data, directly into a
// fresh storage engine (no pipeline dependency).
func seedDB(t testing.TB, nodes, minutes int) *tsdb.DB {
	t.Helper()
	db := tsdb.Open(tsdb.Options{})
	var pts []tsdb.Point
	for i := 0; i < minutes; i++ {
		ts := testStart.Unix() + int64(i*60)
		for n := 1; n <= nodes; n++ {
			node := fmt.Sprintf("10.101.1.%d", n)
			for _, m := range DefaultMetrics() {
				pts = append(pts, tsdb.Point{
					Measurement: m.Measurement,
					Tags:        tsdb.Tags{{Key: "NodeId", Value: node}, {Key: "Label", Value: m.Label}},
					Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(float64(100*n + i))},
					Time:        ts,
				})
			}
			pts = append(pts, tsdb.Point{
				Measurement: "NodeJobs",
				Tags:        tsdb.Tags{{Key: "NodeId", Value: node}},
				Fields:      map[string]tsdb.Value{"JobList": tsdb.Str("['1000.1', '1001.1']")},
				Time:        ts,
			})
		}
		pts = append(pts, tsdb.Point{
			Measurement: "JobsInfo",
			Tags:        tsdb.Tags{{Key: "JobId", Value: "1000.1"}},
			Fields: map[string]tsdb.Value{
				"User": tsdb.Str("alice"), "JobName": tsdb.Str("sim"), "Queue": tsdb.Str("omni"),
				"SubmitTime": tsdb.Int(testStart.Unix() - 300), "StartTime": tsdb.Int(testStart.Unix()),
				"Slots": tsdb.Int(36), "NodeCount": tsdb.Int(1),
			},
			Time: ts,
		})
	}
	// A finished job: FinishTime appears only on the last sample.
	pts = append(pts, tsdb.Point{
		Measurement: "JobsInfo",
		Tags:        tsdb.Tags{{Key: "JobId", Value: "1001.1"}},
		Fields: map[string]tsdb.Value{
			"User": tsdb.Str("bob"), "JobName": tsdb.Str("array"), "Queue": tsdb.Str("omni"),
			"SubmitTime": tsdb.Int(testStart.Unix()), "StartTime": tsdb.Int(testStart.Unix() + 60),
			"FinishTime": tsdb.Int(testStart.Unix() + 600), "Estimated": tsdb.Bool(true),
			"Slots": tsdb.Int(1), "NodeCount": tsdb.Int(1),
		},
		Time: testStart.Unix() + int64((minutes-1)*60),
	})
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	return db
}

func stdRequest(minutes int) Request {
	return Request{
		Start:     testStart,
		End:       testStart.Add(time.Duration(minutes) * time.Minute),
		Interval:  5 * time.Minute,
		Aggregate: "max",
	}
}

// TestNaiveAndBatchedPlansAgree is the core correctness property of
// the optimization ladder: the optimized plan must return exactly what
// the previous builder returned.
func TestNaiveAndBatchedPlansAgree(t *testing.T) {
	db := seedDB(t, 7, 30)
	req := stdRequest(30)
	req.IncludeJobs = true

	naive := New(db, Options{Concurrent: false})
	batched := New(db, Options{Concurrent: true})
	batched.chunk = 3

	respN, stN, err := naive.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	respB, stB, err := batched.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(respN, respB) {
		t.Fatalf("plans disagree:\nnaive   %+v\nbatched %+v", respN, respB)
	}
	// 7 nodes × 10 metrics + 2 jobs queries vs 3 measurements × 3 chunks + 2.
	if stN.Queries != 72 {
		t.Fatalf("naive queries = %d, want 72", stN.Queries)
	}
	if stB.Queries != 11 {
		t.Fatalf("batched queries = %d, want 11", stB.Queries)
	}
	if stN.Points != stB.Points || stN.Series != stB.Series {
		t.Fatalf("stats disagree: naive %d/%d batched %d/%d", stN.Series, stN.Points, stB.Series, stB.Points)
	}
}

func TestFetchShape(t *testing.T) {
	db := seedDB(t, 4, 60)
	b := New(db, Options{Concurrent: true})
	resp, st, err := b.Fetch(context.Background(), stdRequest(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(resp.Nodes))
	}
	if resp.Nodes[0].NodeID != "10.101.1.1" {
		t.Fatalf("nodes not sorted: %q first", resp.Nodes[0].NodeID)
	}
	for _, m := range DefaultMetrics() {
		sd, ok := resp.Nodes[2].Metrics[m.Name()]
		if !ok {
			t.Fatalf("metric %s missing", m.Name())
		}
		// End-exclusive window: exactly 12 five-minute buckets per hour.
		if len(sd.Times) != 12 {
			t.Fatalf("%s buckets = %d, want 12", m.Name(), len(sd.Times))
		}
		// max over minutes [25,29] of node 3 is 300+29.
		if sd.Values[5] != 329 {
			t.Fatalf("%s bucket 5 = %v, want 329", m.Name(), sd.Values[5])
		}
	}
	if st.Nodes != 4 || st.Series != 40 || st.Points != 480 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TSDB.PointsScanned == 0 {
		t.Fatal("no storage work recorded")
	}
}

func TestFetchRawSamples(t *testing.T) {
	db := seedDB(t, 2, 10)
	b := New(db, Options{Concurrent: true})
	req := stdRequest(10)
	req.Interval = 0 // raw
	resp, _, err := b.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sd := resp.Nodes[0].Metrics["Power/NodePower"]
	if len(sd.Times) != 10 {
		t.Fatalf("raw samples = %d, want 10", len(sd.Times))
	}
	if resp.Interval != 0 || resp.Aggregate != "" {
		t.Fatalf("raw response mislabeled: interval=%d agg=%q", resp.Interval, resp.Aggregate)
	}
	for i := 1; i < len(sd.Times); i++ {
		if sd.Times[i] <= sd.Times[i-1] {
			t.Fatal("raw samples not time-ascending")
		}
	}
}

func TestFetchNodeAndMetricSubsets(t *testing.T) {
	db := seedDB(t, 6, 20)
	for _, concurrent := range []bool{false, true} {
		b := New(db, Options{Concurrent: concurrent})
		b.chunk = 2
		req := stdRequest(20)
		req.Nodes = []string{"10.101.1.5", "10.101.1.2"}
		req.Metrics = []Metric{{Measurement: "Power", Label: "NodePower"}}
		resp, st, err := b.Fetch(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Nodes) != 2 || resp.Nodes[0].NodeID != "10.101.1.2" {
			t.Fatalf("concurrent=%t: nodes = %+v", concurrent, resp.Nodes)
		}
		if len(resp.Nodes[0].Metrics) != 1 {
			t.Fatalf("concurrent=%t: metrics = %d, want 1", concurrent, len(resp.Nodes[0].Metrics))
		}
		if st.Series != 2 {
			t.Fatalf("concurrent=%t: series = %d", concurrent, st.Series)
		}
	}
}

func TestFetchJobsData(t *testing.T) {
	db := seedDB(t, 3, 15)
	b := New(db, Options{})
	req := stdRequest(15)
	req.IncludeJobs = true
	resp, _, err := b.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(resp.Jobs))
	}
	running, finished := resp.Jobs[0], resp.Jobs[1]
	if running.JobID != "1000.1" || running.User != "alice" || running.Slots != 36 || running.FinishTime != 0 {
		t.Fatalf("running job = %+v", running)
	}
	if finished.JobID != "1001.1" || finished.FinishTime == 0 || !finished.Estimated {
		t.Fatalf("finished job = %+v", finished)
	}
	if len(resp.NodeJobs) != 3*15 {
		t.Fatalf("node-jobs samples = %d, want 45", len(resp.NodeJobs))
	}
	if got := resp.NodeJobs[0].Jobs; len(got) != 2 || got[0] != "1000.1" {
		t.Fatalf("job list = %v", got)
	}
}

func TestFetchValidation(t *testing.T) {
	db := seedDB(t, 1, 5)
	b := New(db, Options{})
	cases := []Request{
		{Start: testStart, End: testStart},                                         // end == start
		{Start: testStart, End: testStart.Add(-time.Hour)},                         // end < start
		{Start: testStart, End: testStart.Add(time.Hour), Interval: -time.Minute},  // negative interval
		{Start: testStart, End: testStart.Add(time.Hour), Aggregate: "percentile"}, // unknown aggregate
		{Start: testStart, End: testStart.Add(time.Hour), Metrics: []Metric{{}}},   // empty metric
		{}, // no window at all
	}
	for i, req := range cases {
		_, _, err := b.Fetch(context.Background(), req)
		if err == nil {
			t.Errorf("case %d: invalid request accepted", i)
			continue
		}
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("case %d: error %v is not a RequestError", i, err)
		}
	}
}

func TestFetchContextCancellation(t *testing.T) {
	db := seedDB(t, 16, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: both paths must notice at a task boundary
	for _, concurrent := range []bool{false, true} {
		b := New(db, Options{Concurrent: concurrent})
		if _, _, err := b.Fetch(ctx, stdRequest(30)); err != context.Canceled {
			t.Fatalf("concurrent=%t: err = %v, want context.Canceled", concurrent, err)
		}
	}
}

// TestFetchFirstStatementFailure: when the plan's first statement
// fails, Fetch returns that statement's error, not the cancellation it
// causes in its siblings, and no worker outlives the call, serially or
// on the pool. A quote in a label makes the statement unparseable.
func TestFetchFirstStatementFailure(t *testing.T) {
	db := seedDB(t, 16, 30)
	req := stdRequest(30)
	req.Metrics = append([]Metric{{Measurement: "Bad", Label: "it's"}}, DefaultMetrics()...)
	for _, concurrent := range []bool{false, true} {
		b := New(db, Options{Concurrent: concurrent})
		before := runtime.NumGoroutine()
		_, _, err := b.Fetch(context.Background(), req)
		if err == nil || errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "builder: query 0: ") {
			t.Fatalf("concurrent=%t: err = %v, want query 0's own error", concurrent, err)
		}
		waitGoroutines(t, before)
	}
}

func TestDefaultAggregateIsMean(t *testing.T) {
	db := seedDB(t, 1, 10)
	b := New(db, Options{})
	req := stdRequest(10)
	req.Aggregate = ""
	resp, _, err := b.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Aggregate != "mean" {
		t.Fatalf("aggregate = %q", resp.Aggregate)
	}
	// mean over minutes [0,4] of node 1 is 100 + (0+1+2+3+4)/5 = 102.
	if v := resp.Nodes[0].Metrics["Power/NodePower"].Values[0]; v != 102 {
		t.Fatalf("mean = %v, want 102", v)
	}
}

func TestParseMetric(t *testing.T) {
	m, err := ParseMetric("Power/NodePower")
	if err != nil || m.Measurement != "Power" || m.Label != "NodePower" {
		t.Fatalf("parse = %+v, %v", m, err)
	}
	for _, bad := range []string{"", "Power", "/NodePower", "Power/"} {
		if _, err := ParseMetric(bad); err == nil {
			t.Errorf("ParseMetric(%q) accepted", bad)
		}
	}
	if got := m.Name(); got != "Power/NodePower" {
		t.Fatalf("name = %q", got)
	}
}
