package tsdb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestSeriesIdentityDistinct: names that hold a series key's own
// separators keep their series apart. Joined with bare ',' and '=',
// a{k="v,x=y"} and a{k="v",x="y"} shared one key, and so did the
// measurement "a,k=v" and a{k="v"}, whose samples then landed in the
// other's storage. Every answer must hold on the live DB, after WAL
// replay, and after a checkpoint restore.
func TestSeriesIdentityDistinct(t *testing.T) {
	point := func(m string, v float64, tags ...Tag) Point {
		return Point{Measurement: m, Tags: tags, Fields: map[string]Value{"f": Float(v)}, Time: 60}
	}
	want := strings.Join([]string{
		`SHOW SERIES: [a,k=v a,k=v,x=y a,k=v\,x\=y a\,k=v]`,
		`SELECT sum("f") FROM "a": 11`,
		`SELECT sum("f") FROM "a" WHERE "x" = 'y': 2`,
		`SELECT sum("f") FROM "a" WHERE "k" = 'v': 10`,
		`SELECT sum("f") FROM "a" WHERE "k" = 'v,x=y': 1`,
		`SELECT sum("f") FROM "a,k=v": 4`,
		`series in "a": 3, in "a,k=v": 1`,
	}, "\n")
	answers := func(db *DB) string {
		t.Helper()
		res, err := db.Query("SHOW SERIES")
		if err != nil {
			t.Fatal(err)
		}
		lines := []string{fmt.Sprintf("SHOW SERIES: %v", rowsOf(t, res))}
		for _, stmt := range []string{
			`SELECT sum("f") FROM "a"`,
			`SELECT sum("f") FROM "a" WHERE "x" = 'y'`,
			`SELECT sum("f") FROM "a" WHERE "k" = 'v'`,
			`SELECT sum("f") FROM "a" WHERE "k" = 'v,x=y'`,
			`SELECT sum("f") FROM "a,k=v"`,
		} {
			res, err := db.Query(stmt)
			if err != nil {
				t.Fatal(err)
			}
			var sum []string
			for _, s := range res.Series {
				for _, row := range s.Rows() {
					sum = append(sum, row.Values[0].String())
				}
			}
			lines = append(lines, fmt.Sprintf("%s: %s", stmt, strings.Join(sum, " ")))
		}
		lines = append(lines, fmt.Sprintf(`series in "a": %d, in "a,k=v": %d`, db.SeriesCardinality("a"), db.SeriesCardinality("a,k=v")))
		return strings.Join(lines, "\n")
	}
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if err := db.WritePoints([]Point{
		point("a", 1, Tag{"k", "v,x=y"}),
		point("a", 2, Tag{"x", "y"}, Tag{"k", "v"}),
		point("a,k=v", 4),
		point("a", 8, Tag{"k", "v"}),
	}); err != nil {
		t.Fatal(err)
	}
	if got := answers(db); got != want {
		t.Fatalf("live:\n%s\nwant\n%s", got, want)
	}
	replayed, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if info.Points != 4 {
		t.Fatalf("replayed %d points, want 4", info.Points)
	}
	if got := answers(replayed); got != want {
		t.Fatalf("after WAL replay:\n%s\nwant\n%s", got, want)
	}
	if err := replayed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	restored, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if !info.SnapshotLoaded || info.Points != 0 {
		t.Fatalf("recovery %+v, want the checkpoint alone", info)
	}
	if got := answers(restored); got != want {
		t.Fatalf("after checkpoint restore:\n%s\nwant\n%s", got, want)
	}
}

// TestSeriesKeyPlainNamesUnchanged: a name with no byte line protocol
// escapes keeps the key it always had, the names joined by bare ',' and
// '=', so stored keys, scan order and SHOW SERIES do not move.
func TestSeriesKeyPlainNamesUnchanged(t *testing.T) {
	const plain = "abcXYZ019._-:/@+%()"
	rng := rand.New(rand.NewSource(5))
	name := func() string {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = plain[rng.Intn(len(plain))]
		}
		return string(b)
	}
	for range 2000 {
		m := name()
		var tags Tags
		for range rng.Intn(4) {
			tags = append(tags, Tag{name(), name()})
		}
		tags = tags.Sorted()
		join := m
		for _, tag := range tags {
			join += "," + tag.Key + "=" + tag.Value
		}
		if got := seriesKey(m, tags); got != join {
			t.Fatalf("key of %q %v = %q, want %q", m, tags, got, join)
		}
	}
	if got := seriesKey("", Tags{{"NodeId", "10.101.1.1"}}); got != ",NodeId=10.101.1.1" {
		t.Fatalf("group key = %q", got)
	}
}
