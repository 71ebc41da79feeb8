package tsdb

import (
	"context"
	"fmt"
	"testing"
)

func rollupFixture(t *testing.T, nodes, minutes int) *DB {
	t.Helper()
	db := Open(Options{})
	var pts []Point
	for n := 0; n < nodes; n++ {
		for i := 0; i < minutes; i++ {
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{"NodeId", fmt.Sprintf("n%d", n)}, {"Label", "NodePower"}},
				Fields:      map[string]Value{"Reading": Float(float64(100 + i%10))},
				Time:        int64(i * 60),
			})
		}
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	return db
}

// closeBuckets writes one "Power" reading of the series tags at time
// at. It is how a test closes tier buckets: the write's maintenance
// materializes every bucket that ends by the one holding at, which
// stays open, so at lies past every range the test queries.
func closeBuckets(tb testing.TB, db *DB, tags Tags, at int64) {
	tb.Helper()
	p := Point{Measurement: "Power", Tags: tags, Fields: map[string]Value{"Reading": Float(0)}, Time: at}
	if err := db.WritePoint(p); err != nil {
		tb.Fatal(err)
	}
}

// fixtureN0 is rollupFixture's first series.
var fixtureN0 = Tags{{"NodeId", "n0"}, {"Label", "NodePower"}}

// tierPointCount reports the rows one tier holds, through TierStats.
func tierPointCount(tb testing.TB, db *DB, target string) int64 {
	tb.Helper()
	for _, ts := range db.TierStats() {
		if ts.Target == target {
			return ts.Points
		}
	}
	tb.Fatalf("tier %q not registered", target)
	return 0
}

func TestRollupSpecValidate(t *testing.T) {
	good := RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := good.TargetName(); got != "Power_max_300s" {
		t.Fatalf("target = %q", got)
	}
	good.Target = "PowerFiveMin"
	if good.TargetName() != "PowerFiveMin" {
		t.Fatal("explicit target ignored")
	}
	bad := []RollupSpec{
		{Field: "f", Aggregate: "max", Interval: 1},
		{Source: "m", Aggregate: "max", Interval: 1},
		{Source: "m", Field: "f", Aggregate: "max"},
		{Source: "m", Field: "f", Aggregate: "nope", Interval: 1},
		{Source: "m", Field: "f", Interval: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestRollupMaterializesBuckets(t *testing.T) {
	db := rollupFixture(t, 2, 30) // 30 min of minutely data per node
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	// A write at t=1800 closes the fixture's 6 buckets per node.
	closeBuckets(t, db, fixtureN0, 1800)
	if n := tierPointCount(t, db, "Power_max_300s"); n != 12 {
		t.Fatalf("wrote %d rollup points, want 12", n)
	}
	res, err := db.Query(`SELECT "Reading" FROM "Power_max_300s" WHERE "NodeId"='n0'`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Series[0].Rows()
	if len(rows) != 6 {
		t.Fatalf("rollup rows = %d", len(rows))
	}
	// Each 5-minute bucket of values 100..109 has max 104 or 109
	// depending on phase; bucket 0 covers i=0..4 -> max 104.
	if rows[0].Values[0].F != 104 {
		t.Fatalf("bucket0 = %v", rows[0].Values[0])
	}
	// Tags must carry over so per-node queries work.
	if v, _ := res.Series[0].Tags.Get("Label"); v != "NodePower" {
		// raw query without group-by returns no tags; check via SHOW SERIES
		r2, _ := db.Query(`SHOW SERIES FROM "Power_max_300s"`)
		found := false
		for _, s := range r2.Series {
			for _, row := range s.Rows() {
				if row.Values[0].S == "Power_max_300s,Label=NodePower,NodeId=n0" {
					found = true
				}
			}
		}
		if !found {
			t.Fatal("rollup lost source tags")
		}
	}
}

func TestRollupIncrementalWatermark(t *testing.T) {
	db := rollupFixture(t, 1, 30)
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "mean", Interval: 600}); err != nil {
		t.Fatal(err)
	}
	countRows := func() int64 {
		t.Helper()
		return tierPointCount(t, db, "Power_mean_600s")
	}
	// The first write lands in [1200,1800), which stays open: the two
	// buckets before it close.
	closeBuckets(t, db, fixtureN0, 1750)
	if got := countRows(); got != 2 {
		t.Fatalf("first write closed %d buckets, want 2", got)
	}
	// Another write into the open bucket closes nothing and duplicates
	// nothing.
	closeBuckets(t, db, fixtureN0, 1760)
	if got := countRows(); got != 2 {
		t.Fatalf("second write left %d rollup points, want 2", got)
	}
	// New data extends the source to t=2340, so [1200,1800) closes and
	// [1800,2400) stays open until a later point arrives.
	var pts []Point
	for i := 30; i < 40; i++ {
		pts = append(pts, Point{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", "n0"}, {"Label", "NodePower"}},
			Fields:      map[string]Value{"Reading": Float(50)},
			Time:        int64(i * 60),
		})
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if got := countRows(); got != 3 {
		t.Fatalf("rollup points after the batch = %d, want 3", got)
	}
	closeBuckets(t, db, fixtureN0, 2400)
	if got := countRows(); got != 4 {
		t.Fatalf("total rollup points = %d", got)
	}
}

func TestRollupIncompleteBucketExcluded(t *testing.T) {
	db := rollupFixture(t, 1, 10)
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	// The newest point (t=560) is inside the second bucket: only bucket
	// [0,300) is complete.
	closeBuckets(t, db, fixtureN0, 560)
	if n := tierPointCount(t, db, "Power_max_300s"); n != 1 {
		t.Fatalf("wrote %d, want 1", n)
	}
}

func TestRollupEmptySource(t *testing.T) {
	db := Open(Options{})
	if err := db.RegisterRollup(RollupSpec{Source: "Nope", Field: "f", Aggregate: "max", Interval: 60}); err != nil {
		t.Fatal(err)
	}
	// A write elsewhere leaves the tier over an empty source untouched.
	closeBuckets(t, db, fixtureN0, 1000)
	if ts := db.TierStats()[0]; ts.Points != 0 || ts.Watermark != 0 {
		t.Fatalf("empty source: %+v", ts)
	}
}

func TestRollupDuplicateTargetRejected(t *testing.T) {
	db := Open(Options{})
	spec := RollupSpec{Source: "m", Field: "f", Aggregate: "max", Interval: 60}
	if err := db.RegisterRollup(spec); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterRollup(spec); err == nil {
		t.Fatal("duplicate target accepted")
	}
	if len(db.TierStats()) != 1 {
		t.Fatal("specs leaked")
	}
}

func TestRollupQueryEquivalence(t *testing.T) {
	// The planner must serve a tier-aligned aggregate query from the
	// rollup measurement, bit-identical to the forced raw scan and far
	// cheaper.
	db := rollupFixture(t, 1, 60)
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	closeBuckets(t, db, fixtureN0, 3600)
	q, err := Parse(`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 3600 GROUP BY time(5m)`)
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
	if planned.Stats.Tier != "Power_max_300s" {
		t.Fatalf("planner served tier %q, want Power_max_300s", planned.Stats.Tier)
	}
	if raw.Stats.Tier != "" {
		t.Fatalf("forced raw scan reports tier %q", raw.Stats.Tier)
	}
	rawRows := raw.Series[0].Rows()
	plannedRows := planned.Series[0].Rows()
	if len(rawRows) != len(plannedRows) {
		t.Fatalf("row counts differ: %d vs %d", len(rawRows), len(plannedRows))
	}
	for i := range rawRows {
		if rawRows[i].Time != plannedRows[i].Time || rawRows[i].Values[0].F != plannedRows[i].Values[0].F {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, rawRows[i], plannedRows[i])
		}
	}
	// And the tier scan is much cheaper than the raw one it replaced.
	if planned.Stats.PointsScanned >= raw.Stats.PointsScanned/3 {
		t.Fatalf("planner scanned %d vs raw %d — no saving", planned.Stats.PointsScanned, raw.Stats.PointsScanned)
	}
	if planned.Stats.TierRawEquivalent < raw.Stats.PointsScanned/2 {
		t.Fatalf("raw-equivalent estimate %d implausibly low (raw scanned %d)",
			planned.Stats.TierRawEquivalent, raw.Stats.PointsScanned)
	}
}

// tierFixture returns one node's minutely "P" points over minutes
// [from, to), with integer values so tier and raw answers compare
// exactly.
func tierFixture(from, to int) []Point {
	var pts []Point
	for i := from; i < to; i++ {
		pts = append(pts, Point{
			Measurement: "P",
			Tags:        Tags{{"NodeId", "n0"}},
			Fields:      map[string]Value{"r": Float(float64(100 + i%17))},
			Time:        int64(i * 60),
		})
	}
	return pts
}

// servedFrom reports the tier db's planner served stmt from ("" for
// raw).
func servedFrom(t *testing.T, db *DB, stmt string) string {
	t.Helper()
	res, err := db.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.Tier
}

// TestDropRollupTargetRebuildsTier: dropping a tier's target measurement
// forgets its watermark, so the planner answers raw, raw expiry keeps
// every point, and the next source write rebuilds the tier from the
// source's first bucket instead of resuming at the dropped watermark.
func TestDropRollupTargetRebuildsTier(t *testing.T) {
	const stmt = `SELECT max("r") FROM "P" WHERE time >= 0 AND time < 25200 GROUP BY time(3600s)`
	db, raw := Open(Options{}), Open(Options{})
	if err := db.RegisterRollup(RollupSpec{Source: "P", Field: "r", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	write := func(pts []Point) {
		t.Helper()
		for _, d := range []*DB{db, raw} {
			if err := d.WritePoints(pts); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(tierFixture(0, 360))
	queriesEqual(t, db, raw, stmt)
	if tier := servedFrom(t, db, stmt); tier != "P_max_300s" {
		t.Fatalf("before the drop: served from %q, want the tier", tier)
	}
	if ok, err := db.DropMeasurement("P_max_300s"); !ok || err != nil {
		t.Fatalf("drop: ok=%t err=%v", ok, err)
	}
	queriesEqual(t, db, raw, stmt)
	if tier := servedFrom(t, db, stmt); tier != "" {
		t.Fatalf("after the drop: served from %q, want raw", tier)
	}
	if n, err := db.ExpireRaw(6 * 3600); n != 0 || err != nil {
		t.Fatalf("raw expiry with no tier rows removed %d points (err %v)", n, err)
	}
	write(tierFixture(360, 420))
	queriesEqual(t, db, raw, stmt)
	if tier := servedFrom(t, db, stmt); tier != "P_max_300s" {
		t.Fatalf("after the rebuild: served from %q, want the tier", tier)
	}
}

// TestRollupRegisteredOverDataBackfillsOnFirstWrite: a tier registered
// over existing data serves nothing until the source's next write,
// whose maintenance backfills it from the source's first bucket.
func TestRollupRegisteredOverDataBackfillsOnFirstWrite(t *testing.T) {
	const stmt = `SELECT max("r") FROM "P" WHERE time >= 0 AND time < 21600 GROUP BY time(3600s)`
	db, raw := Open(Options{}), Open(Options{})
	for _, d := range []*DB{db, raw} {
		if err := d.WritePoints(tierFixture(0, 360)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RegisterRollup(RollupSpec{Source: "P", Field: "r", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, db, raw, stmt)
	if tier := servedFrom(t, db, stmt); tier != "" {
		t.Fatalf("before any write: served from %q, want raw", tier)
	}
	for _, d := range []*DB{db, raw} {
		if err := d.WritePoints(tierFixture(360, 361)); err != nil {
			t.Fatal(err)
		}
	}
	queriesEqual(t, db, raw, stmt)
	if tier := servedFrom(t, db, stmt); tier != "P_max_300s" {
		t.Fatalf("after one write: served from %q, want the tier", tier)
	}
	res, err := db.Query(`SELECT count("r") FROM "P_max_300s"`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Series[0].Rows()[0].Values[0].I; n != 72 {
		t.Fatalf("tier holds %d buckets after one write, want all 72", n)
	}
}
