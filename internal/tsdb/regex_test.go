package tsdb

import (
	"fmt"
	"strings"
	"testing"
)

// regexDB seeds a DB with one Power series per node plus a second
// measurement, for predicate-matching tests.
func regexDB(t testing.TB, nodes int) *DB {
	t.Helper()
	db := Open(Options{})
	var pts []Point
	for n := 1; n <= nodes; n++ {
		for i := 0; i < 5; i++ {
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{Key: "NodeId", Value: fmt.Sprintf("10.101.1.%d", n)}, {Key: "Label", Value: "NodePower"}},
				Fields:      map[string]Value{"Reading": Float(float64(100*n + i))},
				Time:        int64(60 * i),
			})
		}
		pts = append(pts, Point{
			Measurement: "Thermal",
			Tags:        Tags{{Key: "NodeId", Value: fmt.Sprintf("10.101.1.%d", n)}, {Key: "Label", Value: "CPU1Temp"}},
			Fields:      map[string]Value{"Reading": Float(50)},
			Time:        0,
		})
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestParseRegexPredicate(t *testing.T) {
	q, err := Parse(`SELECT max("Reading") FROM "Power" WHERE "NodeId" =~ /^(10\.101\.1\.1|10\.101\.1\.2)$/ AND time >= 0 GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.TagRegexps) != 1 || q.TagRegexps[0].Key != "NodeId" {
		t.Fatalf("regexps = %+v", q.TagRegexps)
	}
	if !q.TagRegexps[0].Re.MatchString("10.101.1.2") || q.TagRegexps[0].Re.MatchString("10.101.1.20") {
		t.Fatalf("compiled regex wrong: %v", q.TagRegexps[0].Re)
	}
	// Canonical rendering survives a re-parse.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.TagRegexps[0].Re.String() != q.TagRegexps[0].Re.String() {
		t.Fatalf("round trip changed regex: %q vs %q", q2.TagRegexps[0].Re, q.TagRegexps[0].Re)
	}
}

func TestParseRegexEscapedSlash(t *testing.T) {
	q, err := Parse(`SELECT "Reading" FROM "m" WHERE "Path" =~ /^\/scratch$/`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.TagRegexps[0].Re.MatchString("/scratch") {
		t.Fatalf("escaped slash not honoured: %v", q.TagRegexps[0].Re)
	}
}

func TestParseRegexErrors(t *testing.T) {
	for _, stmt := range []string{
		`SELECT "Reading" FROM "m" WHERE "NodeId" =~ /(unclosed/`,
		`SELECT "Reading" FROM "m" WHERE "NodeId" =~ 'not-a-regex'`,
		`SELECT "Reading" FROM "m" WHERE "NodeId" =~ /never-terminated`,
	} {
		if _, err := Parse(stmt); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", stmt)
		}
	}
}

func TestRegexPredicateMatchesSubset(t *testing.T) {
	db := regexDB(t, 8)
	res, err := db.Query(`SELECT max("Reading") FROM "Power" WHERE "NodeId" =~ /^10\.101\.1\.[12]$/ AND time >= 0 AND time < 600 GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		node, _ := s.Tags.Get("NodeId")
		if node != "10.101.1.1" && node != "10.101.1.2" {
			t.Fatalf("unexpected node %q", node)
		}
	}
	// Equality and regex must agree on the same subset.
	eq, err := db.Query(`SELECT max("Reading") FROM "Power" WHERE "NodeId" = '10.101.1.1'`)
	if err != nil {
		t.Fatal(err)
	}
	re, err := db.Query(`SELECT max("Reading") FROM "Power" WHERE "NodeId" =~ /^10\.101\.1\.1$/`)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Series[0].Rows()[0].Values[0] != re.Series[0].Rows()[0].Values[0] {
		t.Fatalf("equality and regex disagree: %v vs %v", eq.Series[0].Rows()[0], re.Series[0].Rows()[0])
	}
}

func TestRegexPredicateCombinesWithEquality(t *testing.T) {
	db := regexDB(t, 4)
	res, err := db.Query(`SELECT count("Reading") FROM "Power" WHERE "Label" = 'NodePower' AND "NodeId" =~ /^10\.101\.1\.(2|3)$/`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Rows()[0].Values[0].I; got != 10 {
		t.Fatalf("count = %d, want 10 (2 nodes x 5 points)", got)
	}
}

func TestRegexPredicateNoMatch(t *testing.T) {
	db := regexDB(t, 4)
	res, err := db.Query(`SELECT "Reading" FROM "Power" WHERE "NodeId" =~ /^nope$/`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Fatalf("series = %d, want 0", len(res.Series))
	}
}

func TestRegexPredicateUnknownTagKey(t *testing.T) {
	db := regexDB(t, 2)
	res, err := db.Query(`SELECT "Reading" FROM "Power" WHERE "Rack" =~ /.*/`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Fatalf("series on unknown tag key = %d, want 0", len(res.Series))
	}
}

func TestEpochAdvancesOnMutation(t *testing.T) {
	db := regexDB(t, 2)
	e0 := db.Epoch()
	if e0 == 0 {
		t.Fatal("epoch still zero after seeding writes")
	}
	// Queries do not advance the epoch.
	if _, err := db.Query(`SELECT "Reading" FROM "Power"`); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != e0 {
		t.Fatal("query advanced epoch")
	}
	// Empty batch does not advance it either.
	if err := db.WritePoints(nil); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != e0 {
		t.Fatal("empty batch advanced epoch")
	}
	if err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != e0+1 {
		t.Fatalf("epoch after write = %d, want %d", db.Epoch(), e0+1)
	}
	if ok, err := db.DropMeasurement("m"); !ok || err != nil {
		t.Fatal("drop failed")
	}
	if db.Epoch() != e0+2 {
		t.Fatalf("epoch after drop = %d, want %d", db.Epoch(), e0+2)
	}
	// DeleteBefore that drops nothing keeps the epoch stable.
	before := db.Epoch()
	if n, _ := db.DeleteBefore(-1 << 40); n != 0 {
		t.Fatalf("deleted %d shards", n)
	}
	if db.Epoch() != before {
		t.Fatal("no-op retention advanced epoch")
	}
	if n, _ := db.DeleteBefore(1 << 40); n == 0 {
		t.Fatal("retention dropped nothing")
	}
	if db.Epoch() != before+1 {
		t.Fatalf("epoch after retention = %d, want %d", db.Epoch(), before+1)
	}
}

func TestRegexQueryStringRendering(t *testing.T) {
	q := MustParse(`SELECT mean("Reading") FROM "Power" WHERE "NodeId" =~ /^(a|b)$/ GROUP BY time(5m), "NodeId"`)
	s := q.String()
	if !strings.Contains(s, `"NodeId" =~ /^(a|b)$/`) {
		t.Fatalf("rendering lost regex: %s", s)
	}
}
