package tsdb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestOpenNonPositiveSelectsDefaults checks Open has one behaviour per
// option: a zero or negative BlockSize or DecodeCacheBytes is the
// default, not a mode of its own.
func TestOpenNonPositiveSelectsDefaults(t *testing.T) {
	for _, v := range []int{0, -1} {
		db := Open(Options{BlockSize: v, DecodeCacheBytes: int64(v)})
		if db.blockSize != DefaultBlockSize {
			t.Fatalf("BlockSize %d: seal threshold %d, want %d", v, db.blockSize, DefaultBlockSize)
		}
		if got := db.CacheStats().BudgetBytes; got != defaultDecodeCacheBytes {
			t.Fatalf("DecodeCacheBytes %d: budget %d, want %d", v, got, defaultDecodeCacheBytes)
		}
	}
}

func TestMeasurementsListing(t *testing.T) {
	db := Open(Options{})
	for _, m := range []string{"Thermal", "Power", "Health"} {
		err := db.WritePoint(Point{Measurement: m, Fields: map[string]Value{"f": Float(1)}, Time: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := db.Measurements()
	want := []string{"Health", "Power", "Thermal"}
	if len(got) != 3 {
		t.Fatalf("measurements = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("measurements = %v, want %v", got, want)
		}
	}
}

func TestSeriesCardinality(t *testing.T) {
	db := Open(Options{})
	for n := 0; n < 5; n++ {
		for _, label := range []string{"CPU1Temp", "CPU2Temp"} {
			err := db.WritePoint(Point{
				Measurement: "Thermal",
				Tags:        Tags{{"NodeId", fmt.Sprintf("n%d", n)}, {"Label", label}},
				Fields:      map[string]Value{"Reading": Float(40)},
				Time:        1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := db.SeriesCardinality("Thermal"); got != 10 {
		t.Fatalf("cardinality = %d, want 10", got)
	}
	if got := db.SeriesCardinality(""); got != 10 {
		t.Fatalf("total cardinality = %d, want 10", got)
	}
	if got := db.SeriesCardinality("Nope"); got != 0 {
		t.Fatalf("missing measurement cardinality = %d", got)
	}
	// Rewriting the same series must not grow cardinality.
	err := db.WritePoint(Point{
		Measurement: "Thermal",
		Tags:        Tags{{"NodeId", "n0"}, {"Label", "CPU1Temp"}},
		Fields:      map[string]Value{"Reading": Float(41)},
		Time:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.SeriesCardinality("Thermal"); got != 10 {
		t.Fatalf("cardinality after rewrite = %d, want 10", got)
	}
}

func TestTagValues(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 3, 1, 0, 60)
	got := db.TagValues("Power", "NodeId")
	if len(got) != 3 || got[0] != "10.101.1.1" {
		t.Fatalf("tag values = %v", got)
	}
	if db.TagValues("Power", "missing") != nil {
		t.Fatal("missing tag key returned values")
	}
	if db.TagValues("missing", "NodeId") != nil {
		t.Fatal("missing measurement returned values")
	}
}

func TestFieldKinds(t *testing.T) {
	db := Open(Options{})
	err := db.WritePoint(Point{
		Measurement: "JobsInfo",
		Tags:        Tags{{"JobId", "1"}},
		Fields: map[string]Value{
			"User":      Str("jieyao"),
			"StartTime": Int(1583792296),
			"Slots":     Int(36),
		},
		Time: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := db.FieldKinds("JobsInfo")
	if kinds["User"] != KindString || kinds["StartTime"] != KindInt {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestDiskAccounting(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 2, 100, 0, 60)
	d := db.Disk()
	if d.Points != 200 {
		t.Fatalf("points = %d, want 200", d.Points)
	}
	if d.DataBytes <= 0 || d.IndexBytes <= 0 {
		t.Fatalf("disk = %+v", d)
	}
	if d.TotalBytes() != d.DataBytes+d.IndexBytes {
		t.Fatal("TotalBytes mismatch")
	}
	// Data bytes should be points × (8 ts + field overhead).
	perPoint := int64(8 + 2 + len("Reading") + 8)
	if d.DataBytes != 200*perPoint {
		t.Fatalf("data bytes = %d, want %d", d.DataBytes, 200*perPoint)
	}
}

func TestShardStatsOrdering(t *testing.T) {
	db := Open(Options{ShardDuration: 100})
	for _, ts := range []int64{250, 50, 150} {
		err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Time: ts})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := db.ShardStats()
	if len(st) != 3 {
		t.Fatalf("shards = %d", len(st))
	}
	for i := 1; i < len(st); i++ {
		if st[i].Start <= st[i-1].Start {
			t.Fatal("shard stats not time ordered")
		}
	}
}

func TestDeleteBefore(t *testing.T) {
	db := Open(Options{ShardDuration: 100})
	for ts := int64(0); ts < 1000; ts += 50 {
		err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Time: ts})
		if err != nil {
			t.Fatal(err)
		}
	}
	if dropped, _ := db.DeleteBefore(500); dropped != 5 {
		t.Fatalf("dropped %d shards, want 5", dropped)
	}
	res, err := db.Query(`SELECT count("f") FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Rows()[0].Values[0].I; got != 10 {
		t.Fatalf("count after retention = %d, want 10", got)
	}
}

func TestNegativeTimestampsShardCorrectly(t *testing.T) {
	db := Open(Options{ShardDuration: 100})
	err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Time: -150})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT count("f") FROM "m" WHERE time >= -200 AND time < 0`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Rows()[0].Values[0].I; got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestConcurrentWritesAndQueries(t *testing.T) {
	db := Open(Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := db.WritePoint(Point{
					Measurement: "Power",
					Tags:        Tags{{"NodeId", fmt.Sprintf("n%d", w)}},
					Fields:      map[string]Value{"Reading": Float(float64(i))},
					Time:        int64(i),
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.Query(`SELECT mean("Reading") FROM "Power"`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Stats().PointsWritten; got != 400 {
		t.Fatalf("points written = %d, want 400", got)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	db := Open(Options{ShardDuration: 3600})
	writeTestFleet(t, db, 3, 25, 1583792296, 60)
	err := db.WritePoint(Point{
		Measurement: "JobsInfo",
		Tags:        Tags{{"JobId", "1291784"}},
		Fields: map[string]Value{
			"User":  Str("jieyao"),
			"Slots": Int(36),
			"Array": Bool(false),
		},
		Time: 1583792300,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for _, stmt := range []string{
		`SELECT count("Reading") FROM "Power"`,
		`SELECT mean("Reading") FROM "Power" GROUP BY "NodeId"`,
		`SELECT "User", "Slots" FROM "JobsInfo"`,
	} {
		r1, err := db.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := db2.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if FormatResult(r1) != FormatResult(r2) {
			t.Fatalf("restore changed results for %s:\n%s\nvs\n%s", stmt, FormatResult(r1), FormatResult(r2))
		}
	}
	if db.Disk().Points != db2.Disk().Points {
		t.Fatalf("restored points = %d, want %d", db2.Disk().Points, db.Disk().Points)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("BOGUSDATA"))); err == nil {
		t.Fatal("garbage restore succeeded")
	}
	if _, err := Restore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty restore succeeded")
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	var buf bytes.Buffer
	if err := Open(Options{}).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db.Disk().Points != 0 {
		t.Fatal("empty restore has points")
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := Open(Options{})
	writeTestFleet(t, db, 2, 20, 1583792296, 60)
	path := t.TempDir() + "/snap.db"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Disk().Points != db.Disk().Points {
		t.Fatalf("points = %d, want %d", back.Disk().Points, db.Disk().Points)
	}
	// Overwriting an existing snapshot must work (atomic rename).
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(t.TempDir() + "/missing.db"); err == nil {
		t.Fatal("missing file loaded")
	}
}
