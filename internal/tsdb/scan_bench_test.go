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
	const nodes, perNode = 16, 72 * 60
	const start = 1587081600 // 2020-04-17T00:00:00Z, a shard boundary
	points := func(frac float64, mixed bool) []Point {
		pts := make([]Point, 0, nodes*perNode)
		for i := 0; i < perNode; i++ {
			for n := 0; n < nodes; n++ {
				v := Float(200 + float64((i*7+n)%50) + frac)
				if mixed && i%(24*60) == 0 {
					v = Str("n/a")
				}
				pts = append(pts, Point{
					Measurement: "Power",
					Tags:        Tags{{"Label", "NodePower"}, {"NodeId", fmt.Sprintf("10.101.1.%d", n)}},
					Fields:      map[string]Value{"Reading": v},
					Time:        start + int64(i*60),
				})
			}
		}
		return pts
	}
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
		stmt := fmt.Sprintf(`SELECT %s("Reading") FROM "Power" WHERE time >= %d AND time < %d GROUP BY time(1h), "NodeId", "Label"`,
			c.agg, start, start+perNode*60)
		b.Run(c.name, func(b *testing.B) {
			db := Open(Options{DecodeCacheBytes: c.budget})
			db.execWorkers = 1
			if err := db.WritePoints(points(c.frac, c.mixed)); err != nil {
				b.Fatal(err)
			}
			res, err := db.Query(stmt) // warm-up: fills the cache when it may
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.PointsScanned != nodes*perNode || res.Stats.BlocksDecoded != nodes*3 {
				b.Fatalf("scan shape: %+v", res.Stats)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(stmt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*perNode), "ns/point")
		})
	}
}
