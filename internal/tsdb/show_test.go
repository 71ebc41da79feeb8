package tsdb

import (
	"testing"
)

func showFixture(t *testing.T) *DB {
	t.Helper()
	db := Open(Options{})
	pts := []Point{
		{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", "10.101.1.1"}, {"Label", "NodePower"}},
			Fields:      map[string]Value{"Reading": Float(273.8)},
			Time:        100,
		},
		{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", "10.101.1.2"}, {"Label", "NodePower"}},
			Fields:      map[string]Value{"Reading": Float(280)},
			Time:        100,
		},
		{
			Measurement: "JobsInfo",
			Tags:        Tags{{"JobId", "1291784"}},
			Fields:      map[string]Value{"User": Str("jieyao"), "Slots": Int(36)},
			Time:        100,
		},
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	return db
}

func rowsOf(t *testing.T, res *Result) []string {
	t.Helper()
	var out []string
	for _, s := range res.Series {
		for _, r := range s.Rows() {
			out = append(out, r.Values[0].S)
		}
	}
	return out
}

func TestShowMeasurements(t *testing.T) {
	db := showFixture(t)
	res, err := db.Query("SHOW MEASUREMENTS")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsOf(t, res)
	if len(got) != 2 || got[0] != "JobsInfo" || got[1] != "Power" {
		t.Fatalf("measurements = %v", got)
	}
}

func TestShowSeries(t *testing.T) {
	db := showFixture(t)
	res, err := db.Query("SHOW SERIES")
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(t, res)) != 3 {
		t.Fatalf("series = %v", rowsOf(t, res))
	}
	res, err = db.Query(`SHOW SERIES FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsOf(t, res)
	if len(got) != 2 || got[0] != "Power,Label=NodePower,NodeId=10.101.1.1" {
		t.Fatalf("power series = %v", got)
	}
}

func TestShowTagKeys(t *testing.T) {
	db := showFixture(t)
	res, err := db.Query("SHOW TAG KEYS")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsOf(t, res)
	if len(got) != 3 { // JobId, Label, NodeId
		t.Fatalf("tag keys = %v", got)
	}
	res, err = db.Query(`SHOW TAG KEYS FROM "JobsInfo"`)
	if err != nil {
		t.Fatal(err)
	}
	got = rowsOf(t, res)
	if len(got) != 1 || got[0] != "JobId" {
		t.Fatalf("jobsinfo tag keys = %v", got)
	}
}

func TestShowTagValues(t *testing.T) {
	db := showFixture(t)
	res, err := db.Query(`SHOW TAG VALUES FROM "Power" WITH KEY = "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsOf(t, res)
	if len(got) != 2 || got[0] != "10.101.1.1" {
		t.Fatalf("tag values = %v", got)
	}
	// Without FROM, scans every measurement.
	res, err = db.Query(`SHOW TAG VALUES WITH KEY = JobId`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, res); len(got) != 1 || got[0] != "1291784" {
		t.Fatalf("job tag values = %v", got)
	}
}

func TestShowFieldKeys(t *testing.T) {
	db := showFixture(t)
	res, err := db.Query(`SHOW FIELD KEYS FROM "JobsInfo"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || res.Series[0].Name != "JobsInfo" {
		t.Fatalf("series = %+v", res.Series)
	}
	rows := res.Series[0].Rows()
	if len(rows) != 2 {
		t.Fatalf("field rows = %d", len(rows))
	}
	// Sorted: Slots(integer), User(string).
	if rows[0].Values[0].S != "Slots" || rows[0].Values[1].S != "integer" {
		t.Fatalf("row0 = %+v", rows[0])
	}
	if rows[1].Values[0].S != "User" || rows[1].Values[1].S != "string" {
		t.Fatalf("row1 = %+v", rows[1])
	}
}

func TestShowErrors(t *testing.T) {
	db := showFixture(t)
	bad := []string{
		"SHOW",
		"SHOW NONSENSE",
		"SHOW TAG",
		"SHOW TAG VALUES",                 // missing WITH KEY
		"SHOW TAG VALUES WITH KEY NodeId", // missing =
		"SHOW FIELD",
		"SHOW MEASUREMENTS extra",
		"SHOW SERIES FROM",
	}
	for _, s := range bad {
		if _, err := db.Query(s); err == nil {
			t.Errorf("Query(%q) succeeded, want error", s)
		}
	}
}

func TestShowOnEmptyDB(t *testing.T) {
	db := Open(Options{})
	res, err := db.Query("SHOW MEASUREMENTS")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Fatal("empty db returned series")
	}
}

func TestDropMeasurement(t *testing.T) {
	db := showFixture(t)
	before := db.Disk()
	if before.Points != 3 {
		t.Fatalf("setup points = %d", before.Points)
	}
	res, err := db.Query(`DROP MEASUREMENT "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 1 {
		t.Fatal("drop did not report success")
	}
	ms := db.Measurements()
	if len(ms) != 1 || ms[0] != "JobsInfo" {
		t.Fatalf("measurements after drop = %v", ms)
	}
	after := db.Disk()
	if after.Points != 1 {
		t.Fatalf("points after drop = %d, want 1", after.Points)
	}
	if after.DataBytes >= before.DataBytes {
		t.Fatal("bytes not reclaimed")
	}
	// Dropped data must not be queryable.
	r, err := db.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 0 {
		t.Fatal("dropped measurement still queryable")
	}
	// Dropping again reports not-found.
	res, err = db.Query(`DROP MEASUREMENT "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 0 {
		t.Fatal("second drop reported success")
	}
}

func TestDropStatementErrors(t *testing.T) {
	db := showFixture(t)
	for _, s := range []string{"DROP", "DROP TABLE x", "DROP MEASUREMENT", "DROP MEASUREMENT a b"} {
		if _, err := db.Query(s); err == nil {
			t.Errorf("Query(%q) succeeded", s)
		}
	}
}
