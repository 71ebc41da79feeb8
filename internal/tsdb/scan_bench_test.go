package tsdb

import (
	"fmt"
	"testing"
)

// BenchmarkScan72h is loadgen's scan-72h request in miniature: 16
// series of 72 h of minutely floats in one-day shards sealed at the
// default block size (one 1,024-point block and a 416-point raw tail
// per series and day), scanned serially by the builder's max@1h
// fan-out statement. "warm" keeps the whole decoded set (0.2 MB at
// 4 B per regular, float32-exact point) resident under the default
// budget, so its ns/point is the aggregation kernel alone; "cold"
// budgets the decode cache a single byte, so every block is decoded
// again on every scan and B/op is the decode garbage per request.
// "cold-decimal" is "cold" over the same readings plus 0.1, which no
// float32 holds exactly, so its blocks keep 8 B a value. The "warm-"
// cases run the same scan with another aggregate in place of max, and
// "warm-mixed" asks max of a column whose first reading each day is a
// string, so a day's first block and the tails hold Value cells.
func BenchmarkScan72h(b *testing.B) {
	for _, c := range []struct {
		name   string
		agg    string
		budget int64
		frac   float64
		mixed  bool
	}{
		{"warm", "max", 0, 0, false}, {"cold", "max", 1, 0, false}, {"cold-decimal", "max", 1, 0.1, false},
		{"warm-first", "first", 0, 0, false}, {"warm-last", "last", 0, 0, false},
		{"warm-stddev", "stddev", 0, 0, false}, {"warm-median", "median", 0, 0, false},
		{"warm-mixed", "max", 0, 0, true},
	} {
		stmt := scan72hStmt(c.agg)
		b.Run(c.name, func(b *testing.B) {
			db := scan72hDB(b, c.frac, c.mixed, c.budget)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(stmt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*scanNodes*scanPerNode), "ns/point")
		})
	}
}

// TestScanAllocsIndependentOfAggregate pins what median and a mixed
// column cost over max in BenchmarkScan72h's scan: their sample
// buffers are reused bucket to bucket and group to group, so over the
// 16 groups they make at most 2 allocations per query more than max.
func TestScanAllocsIndependentOfAggregate(t *testing.T) {
	allocs := func(db *DB, agg string) float64 {
		stmt := scan72hStmt(agg)
		return testing.AllocsPerRun(5, func() {
			if _, err := db.Query(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := scan72hDB(t, 0, false, 0)
	base := allocs(plain, "max")
	for name, got := range map[string]float64{
		"median":             allocs(plain, "median"),
		"max of mixed cells": allocs(scan72hDB(t, 0, true, 0), "max"),
	} {
		if got > base+2 {
			t.Errorf("%s: %.0f allocations per query, max %.0f; want at most 2 more", name, got, base)
		}
	}
}

const (
	scanNodes, scanPerNode = 16, 72 * 60
	scanStart              = 1587081600 // 2020-04-17T00:00:00Z, a shard boundary
)

// scan72hStmt is the builder's fan-out statement over the scan with agg
// in place of max.
func scan72hStmt(agg string) string {
	return fmt.Sprintf(`SELECT %s("Reading") FROM "Power" WHERE time >= %d AND time < %d GROUP BY time(1h), "NodeId", "Label"`,
		agg, scanStart, scanStart+scanPerNode*60)
}

// scan72hDB stores the scan's readings, plus frac, with a string first
// reading each day when mixed, in a DB of one exec worker whose decode
// cache has budget bytes, and checks the scan's shape on a first query,
// which fills the cache when it may.
func scan72hDB(tb testing.TB, frac float64, mixed bool, budget int64) *DB {
	pts := make([]Point, 0, scanNodes*scanPerNode)
	for i := 0; i < scanPerNode; i++ {
		for n := 0; n < scanNodes; n++ {
			v := Float(200 + float64((i*7+n)%50) + frac)
			if mixed && i%(24*60) == 0 {
				v = Str("n/a")
			}
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{"Label", "NodePower"}, {"NodeId", fmt.Sprintf("10.101.1.%d", n)}},
				Fields:      map[string]Value{"Reading": v},
				Time:        scanStart + int64(i*60),
			})
		}
	}
	db := Open(Options{DecodeCacheBytes: budget})
	db.execWorkers = 1
	if err := db.WritePoints(pts); err != nil {
		tb.Fatal(err)
	}
	res, err := db.Query(scan72hStmt("max"))
	if err != nil {
		tb.Fatal(err)
	}
	if res.Stats.PointsScanned != scanNodes*scanPerNode || res.Stats.BlocksDecoded != scanNodes*3 {
		tb.Fatalf("scan shape: %+v", res.Stats)
	}
	return db
}
