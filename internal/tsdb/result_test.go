package tsdb

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// resultFixture is six hours of 60 s samples from four nodes. Node n2's
// Reading turns integer for an hour, so its column holds two kinds;
// Aux is written for the first two hours only, so a query selecting it
// beside Reading has rows where Aux is absent.
func resultFixture() []Point {
	var pts []Point
	for n := 0; n < 4; n++ {
		for i := 0; i < 360; i++ {
			reading := Float(float64((i*7+n*13)%97) + 0.5)
			if n == 2 && i >= 120 && i < 180 {
				reading = Int(int64(i % 50))
			}
			fields := map[string]Value{"Reading": reading}
			if i < 120 {
				fields["Aux"] = Int(int64(i % 11))
			}
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{"NodeId", fmt.Sprintf("n%d", n)}},
				Fields:      fields,
				Time:        int64(i * 60),
			})
		}
	}
	return pts
}

// resultStatements cover the result shapes: a planner-eligible bucketed
// aggregate, an integer count, a two-field aggregate over a mixed-kind
// column with gaps, and a raw projection that interleaves series.
var resultStatements = []string{
	`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 21600 GROUP BY time(10m), "NodeId"`,
	`SELECT count("Reading") FROM "Power" WHERE time >= 0 AND time < 21600 GROUP BY time(10m), *`,
	`SELECT last("Reading"), max("Aux") FROM "Power" WHERE time >= 0 AND time < 21600 GROUP BY time(5m), *`,
	`SELECT "Reading", "Aux" FROM "Power" WHERE time >= 6600 AND time < 11400`,
}

func resultAnswers(t *testing.T, db *DB) [][]ResultSeries {
	t.Helper()
	out := make([][]ResultSeries, len(resultStatements))
	for i, stmt := range resultStatements {
		res, err := db.Query(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		out[i] = res.Series
	}
	return out
}

// TestResultsIndependentOfStorage runs the same statements over the
// same points held six ways — raw tail, raw tail recovered from a
// checkpoint, sealed blocks, spilled to the cold tier, recovered from a
// checkpoint, served by the rollup planner — and requires
// reflect.DeepEqual answers: a column's kind, and
// whether it carries a presence slice, depend on the values alone.
// loadgen's restart check compares answers the same way.
func TestResultsIndependentOfStorage(t *testing.T) {
	pts := resultFixture()
	tail := Open(Options{ShardDuration: 3600})
	if err := tail.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if n := tail.Stats().BlocksSealed; n != 0 {
		t.Fatalf("raw-tail fixture sealed %d blocks", n)
	}
	want := resultAnswers(t, tail)
	var mixed, gapped bool
	for _, s := range want[2] {
		mixed = mixed || s.cols[0].vals.kind == vecMixed
		gapped = gapped || s.cols[1].present != nil
	}
	if !mixed || !gapped || want[3][0].cols[1].present == nil {
		t.Fatalf("fixture exercises no mixed (%v) or gapped (%v) column", mixed, gapped)
	}

	check := func(state string, db *DB) {
		t.Helper()
		for i, got := range resultAnswers(t, db) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: %s answers differently from the raw tail", state, resultStatements[i])
			}
		}
	}

	// A checkpoint of a DB that sealed nothing: every column, float,
	// int, mixed and gapped, comes back through the snapshot's tail
	// encoding alone.
	root := t.TempDir()
	tailOpts := Options{ShardDuration: 3600}
	tailWAL := WALOptions{Dir: filepath.Join(root, "tail-wal"), Policy: FsyncNever}
	db, _, err := OpenDurable(tailOpts, tailWAL)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db, info, err := OpenDurable(tailOpts, tailWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded || info.Points != 0 || db.Stats().BlocksSealed != 0 {
		t.Fatalf("tail-only checkpoint: recovery %+v, %d blocks", info, db.Stats().BlocksSealed)
	}
	check("tail-only checkpoint", db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	opts := Options{ShardDuration: 3600, BlockSize: 16, ColdDir: filepath.Join(root, "cold"), DecodeCacheBytes: 1}
	wopts := WALOptions{Dir: filepath.Join(root, "wal"), Policy: FsyncNever}
	if db, _, err = OpenDurable(opts, wopts); err != nil {
		t.Fatal(err)
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if db.Stats().BlocksSealed == 0 {
		t.Fatal("no block sealed")
	}
	check("sealed", db)
	if n, err := db.SpillCold(math.MaxInt64); err != nil || n == 0 {
		t.Fatalf("spill: %d blocks, %v", n, err)
	}
	check("spilled", db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if db, _, err = OpenDurable(opts, wopts); err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	check("reopened", db)

	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	closeBuckets(t, db, Tags{{"NodeId", "n0"}}, 21600)
	res, err := db.Query(resultStatements[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tier == "" {
		t.Fatal("the planner served no tier")
	}
	if !reflect.DeepEqual(res.Series, want[0]) {
		t.Fatal("planner: the tiered answer differs from the raw tail's")
	}
}

// TestBucketedQueryAllocation bounds what a bucketed aggregate
// allocates per output bucket: the bucket's time and value and little
// else. A row of Value cells would cost 100 B and more.
func TestBucketedQueryAllocation(t *testing.T) {
	const series, buckets = 64, 72
	db := Open(Options{})
	var pts []Point
	for n := 0; n < series; n++ {
		for i := 0; i < buckets*5; i++ {
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{"Label", "NodePower"}, {"NodeId", fmt.Sprintf("n%02d", n)}},
				Fields:      map[string]Value{"Reading": Float(float64(i%40) + 200)},
				Time:        int64(i * 60),
			})
		}
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(fmt.Sprintf(`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < %d GROUP BY time(5m), *`, buckets*300))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := db.Exec(context.Background(), q)
		if err != nil || len(res.Series) != series || len(res.Series[0].Times) != buckets {
			t.Fatalf("query: %v", err)
		}
	}
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perBucket := float64(after.TotalAlloc-before.TotalAlloc) / (runs * series * buckets)
	t.Logf("%.1f B allocated per output bucket", perBucket)
	if perBucket > 24 {
		t.Fatalf("%.1f B allocated per output bucket, want at most 24", perBucket)
	}
}
