package tsdb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// writeTestFleet writes count power samples per node at interval
// seconds starting at t0, value = base + nodeIdx + i%7.
func writeTestFleet(t *testing.T, db *DB, nodes, count int, t0, interval int64) {
	t.Helper()
	var pts []Point
	for n := 0; n < nodes; n++ {
		for i := 0; i < count; i++ {
			pts = append(pts, Point{
				Measurement: "Power",
				Tags: Tags{
					{"NodeId", fmt.Sprintf("10.101.1.%d", n+1)},
					{"Label", "NodePower"},
				},
				Fields: map[string]Value{"Reading": Float(float64(200 + n + i%7))},
				Time:   t0 + int64(i)*interval,
			})
		}
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAndRawQuery(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 2, 10, 1000, 60)
	res, err := db.Query(`SELECT "Reading" FROM "Power" WHERE "NodeId"='10.101.1.1'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(res.Series))
	}
	if got := len(res.Series[0].Rows()); got != 10 {
		t.Fatalf("rows = %d, want 10", got)
	}
	if res.Series[0].Rows()[0].Time != 1000 {
		t.Fatalf("first row time = %d", res.Series[0].Rows()[0].Time)
	}
}

func TestWriteRejectsInvalidBatchAtomically(t *testing.T) {
	db := Open(Options{})
	pts := []Point{
		{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Time: 1},
		{Measurement: "", Fields: map[string]Value{"f": Float(1)}, Time: 2},
	}
	if err := db.WritePoints(pts); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if db.Stats().PointsWritten != 0 {
		t.Fatal("partial batch was written")
	}
}

func TestAggMaxGroupByTime(t *testing.T) {
	db := Open(Options{})
	// Samples every 60 s for 1 h starting at t=0: values 0..59 mod 7.
	var pts []Point
	for i := 0; i < 60; i++ {
		pts = append(pts, Point{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", "n1"}},
			Fields:      map[string]Value{"Reading": Float(float64(i % 7))},
			Time:        int64(i * 60),
		})
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 3600 GROUP BY time(5m)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Series[0].Rows()
	if len(rows) != 12 {
		t.Fatalf("buckets = %d, want 12", len(rows))
	}
	for i, r := range rows {
		if r.Time != int64(i*300) {
			t.Fatalf("bucket %d at %d, want %d", i, r.Time, i*300)
		}
		if v := r.Values[0].F; v < 4 || v > 6 {
			t.Fatalf("bucket %d max = %v, want in [4,6]", i, v)
		}
	}
}

func TestAggregatesAgainstNaiveReference(t *testing.T) {
	db := Open(Options{})
	rng := rand.New(rand.NewSource(7))
	const n = 500
	vals := make([]float64, n)
	var pts []Point
	for i := 0; i < n; i++ {
		vals[i] = rng.Float64() * 100
		pts = append(pts, Point{
			Measurement: "m",
			Tags:        Tags{{"id", "x"}},
			Fields:      map[string]Value{"f": Float(vals[i])},
			Time:        int64(i),
		})
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	var sum, max, min float64
	min = vals[0]
	max = vals[0]
	for _, v := range vals {
		sum += v
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	check := func(fn string, want float64) {
		t.Helper()
		res, err := db.Query(fmt.Sprintf(`SELECT %s("f") FROM "m"`, fn))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Series[0].Rows()[0].Values[0].F
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s = %v, want %v", fn, got, want)
		}
	}
	check("sum", sum)
	check("max", max)
	check("min", min)
	check("mean", sum/n)
	res, err := db.Query(`SELECT count("f") FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Rows()[0].Values[0].I; got != n {
		t.Errorf("count = %d, want %d", got, n)
	}
}

func TestFirstLastRespectTimeOrderDespiteOutOfOrderWrites(t *testing.T) {
	db := Open(Options{})
	times := []int64{50, 10, 90, 30, 70}
	for _, ts := range times {
		err := db.WritePoint(Point{
			Measurement: "m",
			Tags:        Tags{{"id", "x"}},
			Fields:      map[string]Value{"f": Float(float64(ts))},
			Time:        ts,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT first("f"), last("f") FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Series[0].Rows()[0]
	if row.Values[0].F != 10 || row.Values[1].F != 90 {
		t.Fatalf("first/last = %v/%v, want 10/90", row.Values[0].F, row.Values[1].F)
	}
}

func TestTagFilterSelectivity(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 10, 5, 0, 60)
	res, err := db.Query(`SELECT count("Reading") FROM "Power" WHERE "NodeId"='10.101.1.3'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SeriesScanned != 1 {
		t.Fatalf("scanned %d series, want 1 (index should prune)", res.Stats.SeriesScanned)
	}
	if res.Series[0].Rows()[0].Values[0].I != 5 {
		t.Fatalf("count = %v", res.Series[0].Rows()[0].Values[0])
	}
}

func TestQueryMissingMeasurementOrTag(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 1, 1, 0, 60)
	res, err := db.Query(`SELECT count("Reading") FROM "Nope"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Fatal("missing measurement returned series")
	}
	res, err = db.Query(`SELECT count("Reading") FROM "Power" WHERE "NodeId"='missing'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Fatal("missing tag value returned series")
	}
}

func TestGroupByTagSplitsSeries(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 4, 3, 0, 60)
	res, err := db.Query(`SELECT mean("Reading") FROM "Power" GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Series))
	}
	// Groups must be tag-sorted and labelled.
	for i := 1; i < len(res.Series); i++ {
		if !tagsLess(res.Series[i-1].Tags, res.Series[i].Tags) {
			t.Fatal("groups not sorted by tags")
		}
	}
	if v, _ := res.Series[0].Tags.Get("NodeId"); v != "10.101.1.1" {
		t.Fatalf("first group tag = %q", v)
	}
}

// TestGroupByTagCoveredSeriesJoinsGroup: a series whose whole tag set
// the GROUP BY keys cover shares its group with a series that has
// further tags when their GROUP BY values agree — in one shard or
// across two, whatever order the keys are listed in — and the tier
// planner answers that shape as the raw scan does.
func TestGroupByTagCoveredSeriesJoinsGroup(t *testing.T) {
	for _, c := range []struct {
		name           string
		groupBy        string
		covered, wider Tags
		offset         int64 // the wider series' first time; 86400 is the next shard
	}{
		{"one shard", `"NodeId"`, Tags{{"NodeId", "n0"}}, Tags{{"Label", "x"}, {"NodeId", "n0"}}, 0},
		{"across shards", `"NodeId"`, Tags{{"NodeId", "n0"}}, Tags{{"Label", "x"}, {"NodeId", "n0"}}, 86400},
		{"two keys", `"NodeId", "Label"`, Tags{{"Label", "x"}, {"NodeId", "n0"}},
			Tags{{"Label", "x"}, {"NodeId", "n0"}, {"Rack", "r1"}}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := Open(Options{})
			var pts []Point
			for i := 0; i < 120; i++ {
				pts = append(pts,
					Point{Measurement: "Power", Tags: c.covered, Fields: map[string]Value{"Reading": Float(float64(i))}, Time: int64(60 * i)},
					Point{Measurement: "Power", Tags: c.wider, Fields: map[string]Value{"Reading": Float(float64(1000 + i))}, Time: c.offset + int64(60*i)})
			}
			if err := db.WritePoints(pts); err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(`SELECT count("Reading"), max("Reading") FROM "Power" GROUP BY ` + c.groupBy)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series) != 1 || seriesKey("", res.Series[0].Tags) != seriesKey("", c.covered) {
				t.Fatalf("groups %+v, want one group %v", res.Series, c.covered)
			}
			if row := res.Series[0].Rows()[0]; row.Values[0] != Int(240) || row.Values[1] != Float(1119) {
				t.Fatalf("group row %+v, want count 240 and max 1119", row)
			}

			if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
				t.Fatal(err)
			}
			closeBuckets(t, db, c.covered, c.offset+7200)
			q, err := Parse(fmt.Sprintf(`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < %d GROUP BY time(5m), %s`,
				c.offset+7200, c.groupBy))
			if err != nil {
				t.Fatal(err)
			}
			planned, err := db.Exec(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := db.execView(context.Background(), db.view.Load(), q)
			if err != nil {
				t.Fatal(err)
			}
			if planned.Stats.Tier == "" || len(raw.Series) != 1 {
				t.Fatalf("tier %q, %d raw groups: want the planner engaged on one group", planned.Stats.Tier, len(raw.Series))
			}
			sameResult(t, planned, raw, c.name)
		})
	}
}

func TestGroupByStarOneGroupPerSeries(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 3, 2, 0, 60)
	res, err := db.Query(`SELECT mean("Reading") FROM "Power" GROUP BY *`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Series))
	}
	if len(res.Series[0].Tags) != 2 {
		t.Fatalf("star group tags = %v", res.Series[0].Tags)
	}
}

func TestTimeRangeClipsAcrossShards(t *testing.T) {
	db := Open(Options{ShardDuration: 3600}) // 1 h shards
	var pts []Point
	for i := 0; i < 10*60; i++ { // 10 h of minutely data
		pts = append(pts, Point{
			Measurement: "m",
			Tags:        Tags{{"id", "x"}},
			Fields:      map[string]Value{"f": Float(1)},
			Time:        int64(i * 60),
		})
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if got := db.Disk().Shards; got != 10 {
		t.Fatalf("shards = %d, want 10", got)
	}
	res, err := db.Query(`SELECT count("f") FROM "m" WHERE time >= 5400 AND time < 12600`)
	if err != nil {
		t.Fatal(err)
	}
	// [5400, 12600) covers 7200 s of minutely samples = 120 points.
	if got := res.Series[0].Rows()[0].Values[0].I; got != 120 {
		t.Fatalf("count = %d, want 120", got)
	}
	if res.Stats.PointsScanned != 120 {
		t.Fatalf("scanned %d, want 120 (shard+binary-search pruning)", res.Stats.PointsScanned)
	}
}

func TestLimit(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 1, 50, 0, 60)
	res, err := db.Query(`SELECT "Reading" FROM "Power" LIMIT 7`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Series[0].Rows()); got != 7 {
		t.Fatalf("rows = %d, want 7", got)
	}
}

func TestMultiFieldRawAlignment(t *testing.T) {
	db := Open(Options{})
	err := db.WritePoints([]Point{
		{Measurement: "m", Tags: Tags{{"id", "x"}}, Fields: map[string]Value{"a": Float(1)}, Time: 10},
		{Measurement: "m", Tags: Tags{{"id", "x"}}, Fields: map[string]Value{"a": Float(2), "b": Float(20)}, Time: 20},
		{Measurement: "m", Tags: Tags{{"id", "x"}}, Fields: map[string]Value{"b": Float(30)}, Time: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT "a", "b" FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Series[0].Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if !rows[0].Present[0] || rows[0].Present[1] {
		t.Fatalf("row0 presence = %v", rows[0].Present)
	}
	if !rows[1].Present[0] || !rows[1].Present[1] {
		t.Fatalf("row1 presence = %v", rows[1].Present)
	}
	if rows[2].Present[0] || !rows[2].Present[1] {
		t.Fatalf("row2 presence = %v", rows[2].Present)
	}
}

func TestRawQueryDoesNotMergeSeriesAtSameTimestamp(t *testing.T) {
	// Regression: three nodes sampled at the same instant must yield
	// three rows, not one overwritten row.
	db := Open(Options{})
	for n := 1; n <= 3; n++ {
		err := db.WritePoint(Point{
			Measurement: "NodeJobs",
			Tags:        Tags{{"NodeId", fmt.Sprintf("n%d", n)}},
			Fields:      map[string]Value{"JobList": Str(fmt.Sprintf("['job%d']", n))},
			Time:        1000,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT "JobList" FROM "NodeJobs"`)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	vals := map[string]bool{}
	for _, s := range res.Series {
		for _, r := range s.Rows() {
			total++
			vals[r.Values[0].S] = true
		}
	}
	if total != 3 || len(vals) != 3 {
		t.Fatalf("rows = %d distinct = %d, want 3/3", total, len(vals))
	}
}

func TestStatsBytesScannedPositive(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 2, 10, 0, 60)
	res, err := db.Query(`SELECT mean("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesScanned <= 0 || res.Stats.PointsScanned != 20 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestFormatResultRendersTable(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 1, 2, 1583792296, 60)
	res, err := db.Query(`SELECT "Reading" FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(res)
	if !strings.Contains(out, "name: Power") || !strings.Contains(out, "Reading") {
		t.Fatalf("unexpected render:\n%s", out)
	}
	if !strings.Contains(out, "2020-03-09T") {
		t.Fatalf("timestamp not rendered:\n%s", out)
	}
}

func TestExecRejectsInvalidQuery(t *testing.T) {
	db := Open(Options{})
	if _, err := db.Exec(context.Background(), &Query{}); err == nil {
		t.Fatal("empty query executed")
	}
}

func TestPropCountMatchesWrites(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		db := Open(Options{ShardDuration: 1000})
		var pts []Point
		for i, r := range raw {
			pts = append(pts, Point{
				Measurement: "m",
				Tags:        Tags{{"id", "x"}},
				Fields:      map[string]Value{"f": Float(float64(r))},
				Time:        int64(r), // arbitrary, possibly duplicated times
			})
			_ = i
		}
		if err := db.WritePoints(pts); err != nil {
			return false
		}
		res, err := db.Query(`SELECT count("f") FROM "m"`)
		if err != nil {
			return false
		}
		return res.Series[0].Rows()[0].Values[0].I == int64(len(raw))
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestPropMaxBucketsNeverExceedGlobalMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		db := Open(Options{})
		var pts []Point
		var globalMax float64
		for i, r := range raw {
			v := float64(r)
			if i == 0 || v > globalMax {
				globalMax = v
			}
			pts = append(pts, Point{
				Measurement: "m",
				Tags:        Tags{{"id", "x"}},
				Fields:      map[string]Value{"f": Float(v)},
				Time:        int64(i * 10),
			})
		}
		if err := db.WritePoints(pts); err != nil {
			return false
		}
		res, err := db.Query(`SELECT max("f") FROM "m" GROUP BY time(1m)`)
		if err != nil {
			return false
		}
		found := false
		for _, row := range res.Series[0].Rows() {
			if row.Values[0].F > globalMax {
				return false
			}
			if row.Values[0].F == globalMax {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}

func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 30}
}

func TestOrderByTimeDescWithLimit(t *testing.T) {
	// The "latest value" idiom: ORDER BY time DESC LIMIT 1.
	db := Open(Options{})
	writeTestFleet(t, db, 1, 10, 0, 60)
	res, err := db.Query(`SELECT "Reading" FROM "Power" ORDER BY time DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Series[0].Rows()
	if len(rows) != 1 || rows[0].Time != 9*60 {
		t.Fatalf("latest row = %+v", rows)
	}
	// Descending aggregation buckets too.
	res, err = db.Query(`SELECT max("Reading") FROM "Power" GROUP BY time(2m) ORDER BY time DESC`)
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Series[0].Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i].Time >= rows[i-1].Time {
			t.Fatalf("rows not descending: %v then %v", rows[i-1].Time, rows[i].Time)
		}
	}
}

// BenchmarkRangeIndexes guards the rangeIndexes fix: the upper-bound
// search runs only over the times the lower bound admitted, so a
// narrow window late in a long explicit column costs two short binary
// searches, not one short and one full-length. A regular tail answers
// both bounds by arithmetic.
func BenchmarkRangeIndexes(b *testing.B) {
	const n = 1 << 20
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i * 60)
	}
	for _, c := range []struct {
		name  string
		times timeVec
	}{{"explicit", timeVec{t: ts}}, {"regular", compactTimes(ts)}} {
		b.Run(c.name, func(b *testing.B) {
			col := &column{times: c.times}
			// The worst pre-fix case: a tiny window at the very end of
			// the column, where the second search's haystack shrinks
			// from n to ~10.
			start, end := ts[n-10], ts[n-1]+1
			for i := 0; i < b.N; i++ {
				lo, hi := col.rangeIndexes(start, end)
				if hi-lo != 10 {
					b.Fatalf("window = [%d,%d)", lo, hi)
				}
			}
		})
	}
}
