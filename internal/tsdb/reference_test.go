package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Reference-model tests: the engine's GROUP BY time aggregation is
// compared, over randomized datasets, against a brute-force in-memory
// reference implementation.

type refPoint struct {
	series int
	t      int64
	v      float64
}

// refAggregate computes the expected bucketed aggregate over points
// matching the series filter.
func refAggregate(points []refPoint, series int, start, end, interval int64, agg string) map[int64]float64 {
	buckets := make(map[int64][]float64)
	for _, p := range points {
		if p.series != series || p.t < start || p.t >= end {
			continue
		}
		bt := p.t - mod(p.t, interval)
		buckets[bt] = append(buckets[bt], p.v)
	}
	out := make(map[int64]float64, len(buckets))
	for bt, vals := range buckets {
		switch agg {
		case "max":
			m := vals[0]
			for _, v := range vals {
				if v > m {
					m = v
				}
			}
			out[bt] = m
		case "min":
			m := vals[0]
			for _, v := range vals {
				if v < m {
					m = v
				}
			}
			out[bt] = m
		case "sum", "mean":
			var s float64
			for _, v := range vals {
				s += v
			}
			if agg == "mean" {
				s /= float64(len(vals))
			}
			out[bt] = s
		case "count":
			out[bt] = float64(len(vals))
		}
	}
	return out
}

func TestEngineMatchesReferenceOnRandomData(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 911))
		db := Open(Options{ShardDuration: 500}) // small shards force multi-shard scans
		nSeries := 1 + rng.Intn(4)
		nPoints := 50 + rng.Intn(300)
		interval := int64(10 * (1 + rng.Intn(30)))

		var points []refPoint
		var batch []Point
		for i := 0; i < nPoints; i++ {
			p := refPoint{
				series: rng.Intn(nSeries),
				t:      int64(rng.Intn(5000)),
				v:      math.Round(rng.Float64()*1000) / 10,
			}
			points = append(points, p)
			batch = append(batch, Point{
				Measurement: "m",
				Tags:        Tags{{"id", fmt.Sprintf("s%d", p.series)}},
				Fields:      map[string]Value{"f": Float(p.v)},
				Time:        p.t,
			})
		}
		if err := db.WritePoints(batch); err != nil {
			t.Fatal(err)
		}

		start := int64(rng.Intn(2000))
		end := start + int64(500+rng.Intn(3000))
		series := rng.Intn(nSeries)
		for _, agg := range []string{"max", "min", "sum", "mean", "count"} {
			stmt := fmt.Sprintf(
				`SELECT %s("f") FROM "m" WHERE "id"='s%d' AND time >= %d AND time < %d GROUP BY time(%ds)`,
				agg, series, start, end, interval)
			res, err := db.Query(stmt)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := refAggregate(points, series, start, end, interval, agg)
			got := map[int64]float64{}
			for _, s := range res.Series {
				for _, row := range s.Rows() {
					if !row.Present[0] {
						continue
					}
					f, _ := row.Values[0].AsFloat()
					got[row.Time] = f
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d buckets, reference has %d\nstmt: %s", trial, agg, len(got), len(want), stmt)
			}
			for bt, wv := range want {
				gv, ok := got[bt]
				if !ok {
					t.Fatalf("trial %d %s: bucket %d missing", trial, agg, bt)
				}
				if math.Abs(gv-wv) > 1e-9 {
					t.Fatalf("trial %d %s: bucket %d = %v, reference %v", trial, agg, bt, gv, wv)
				}
			}
		}
	}
}

func TestEngineMatchesReferenceWithDuplicateTimestamps(t *testing.T) {
	// Duplicate timestamps are kept (not overwritten); count must see
	// every sample.
	db := Open(Options{})
	const dup = 5
	for i := 0; i < dup; i++ {
		err := db.WritePoint(Point{
			Measurement: "m",
			Tags:        Tags{{"id", "x"}},
			Fields:      map[string]Value{"f": Float(float64(i))},
			Time:        100,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT count("f"), sum("f") FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Series[0].Rows()[0]
	if row.Values[0].I != dup {
		t.Fatalf("count = %d, want %d", row.Values[0].I, dup)
	}
	if row.Values[1].F != 0+1+2+3+4 {
		t.Fatalf("sum = %v", row.Values[1].F)
	}
}
