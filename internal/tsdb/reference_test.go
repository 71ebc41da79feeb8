package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// matching the series filter, as floats (count too).
func refAggregate(points []refPoint, series int, start, end, interval int64, agg string) map[int64]float64 {
	var times []int64
	var vals []Value
	for _, p := range points {
		if p.series == series {
			times, vals = append(times, p.t), append(vals, Float(p.v))
		}
	}
	out := map[int64]float64{}
	for bt, v := range refBuckets(times, vals, start, end, interval, agg) {
		out[bt], _ = v.AsFloat()
	}
	return out
}

// refBuckets computes the expected bucketed aggregate over the samples
// (times[i], vals[i]), given in time order, that fall in [start, end):
// one value per bucket that has an answer.
func refBuckets(times []int64, vals []Value, start, end, interval int64, agg string) map[int64]Value {
	buckets := map[int64][]Value{}
	for i, t := range times {
		if t >= start && t < end {
			bt := t - mod(t, interval)
			buckets[bt] = append(buckets[bt], vals[i])
		}
	}
	out := make(map[int64]Value, len(buckets))
	for bt, vs := range buckets {
		if v, ok := refReduce(agg, vs); ok {
			out[bt] = v
		}
	}
	return out
}

// refReduce is the reference model of one bucket: the named aggregate
// over vals in time order, ok=false when the bucket has no answer.
// count counts values of every kind, and first and last take a value of
// any kind as it is. The other aggregates skip strings and bools,
// answer only when a numeric value is left (stddev: two), and compute
// in float64.
func refReduce(agg string, vals []Value) (Value, bool) {
	if len(vals) == 0 {
		return Value{}, false
	}
	switch agg {
	case "count":
		return Int(int64(len(vals))), true
	case "first":
		return vals[0], true
	case "last":
		return vals[len(vals)-1], true
	}
	var fs []float64
	for _, v := range vals {
		if f, ok := v.AsFloat(); ok {
			fs = append(fs, f)
		}
	}
	if len(fs) == 0 {
		return Value{}, false
	}
	switch agg {
	case "sum", "mean":
		var s float64
		for _, f := range fs {
			s += f
		}
		if agg == "mean" {
			s /= float64(len(fs))
		}
		return Float(s), true
	case "max", "min", "spread":
		lo, hi := fs[0], fs[0]
		for _, f := range fs[1:] {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		switch agg {
		case "max":
			return Float(hi), true
		case "min":
			return Float(lo), true
		}
		return Float(hi - lo), true
	case "stddev":
		// The sample standard deviation in Welford's online form, whose
		// rounding the engine reproduces (TestStddevMatchesDefinition
		// checks it against the two-pass definition).
		if len(fs) < 2 {
			return Value{}, false
		}
		var mean, m2 float64
		for i, f := range fs {
			d := f - mean
			mean += d / float64(i+1)
			m2 += d * (f - mean)
		}
		return Float(math.Sqrt(m2 / float64(len(fs)-1))), true
	case "median":
		sort.Float64s(fs)
		if n := len(fs); n%2 == 0 {
			return Float((fs[n/2-1] + fs[n/2]) / 2), true
		}
		return Float(fs[len(fs)/2]), true
	}
	panic("refReduce: unknown aggregate " + agg)
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
