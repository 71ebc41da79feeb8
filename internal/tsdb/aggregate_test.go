package tsdb

import (
	"fmt"
	"math"
	"testing"
)

// Query-level aggregate cases. Each case writes its values to one
// series at times 0, 10, 20, … and asks one aggregate over them, with
// GROUP BY time(iv) when iv > 0; want holds one value per bucket, and
// a bucket without an answer yields no row. Every case runs twice, once
// over the raw tail and once over sealed blocks of two points, and both
// stores must answer bit for bit alike.
type aggCase struct {
	name string
	fn   string
	vals []Value
	iv   int64
	want []Value
}

func floats(xs ...float64) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = Float(x)
	}
	return out
}

func runAggCases(t *testing.T, cases []aggCase) {
	t.Helper()
	for _, c := range cases {
		var answers [][]Value
		for _, bs := range []int{neverSeal, 2} {
			db := Open(Options{BlockSize: bs})
			for i, v := range c.vals {
				if err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": v}, Time: int64(10 * i)}); err != nil {
					t.Fatal(err)
				}
			}
			stmt := fmt.Sprintf(`SELECT %s("f") FROM "m"`, c.fn)
			if c.iv > 0 {
				stmt += fmt.Sprintf(` WHERE time >= 0 AND time < 1000 GROUP BY time(%ds)`, c.iv)
			}
			res, err := db.Query(stmt)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, stmt, err)
			}
			var got []Value
			for _, s := range res.Series {
				for _, row := range s.Rows() {
					got = append(got, row.Values[0])
				}
			}
			answers = append(answers, got)
		}
		for i, got := range answers {
			if len(got) != len(c.want) {
				t.Errorf("%s (store %d): %v, want %v", c.name, i, got, c.want)
				continue
			}
			for j := range got {
				if !sameValue(got[j], c.want[j]) {
					t.Errorf("%s (store %d): bucket %d = %v, want %v", c.name, i, j, got[j], c.want[j])
				}
			}
		}
	}
}

func TestNewAggregatorNames(t *testing.T) {
	for _, name := range aggNames {
		if !IsAggregate(name) {
			t.Errorf("aggregate %q missing", name)
		}
		if _, err := Parse(fmt.Sprintf(`SELECT %s("f") FROM "m"`, name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(aggNames) != 10 {
		t.Errorf("%d aggregates: %v", len(aggNames), aggNames)
	}
	for _, name := range []string{"percentile", "", "MAX"} {
		if IsAggregate(name) {
			t.Errorf("unknown aggregate %q accepted", name)
		}
	}
	if _, err := Parse(`SELECT percentile("f") FROM "m"`); err == nil {
		t.Error("query with an unknown aggregate parsed")
	}
	if err := (&RollupSpec{Source: "m", Field: "f", Interval: 60, Aggregate: "percentile"}).Validate(); err == nil {
		t.Error("rollup with an unknown aggregate validated")
	}
}

func TestCountCountsAllKinds(t *testing.T) {
	runAggCases(t, []aggCase{
		{"float, string, bool", "count", []Value{Float(1), Str("x"), Bool(true)}, 0, []Value{Int(3)}},
		{"strings only", "count", []Value{Str("a"), Str("b")}, 0, []Value{Int(2)}},
	})
}

func TestSumIgnoresNonNumeric(t *testing.T) {
	runAggCases(t, []aggCase{
		{"floats and a string", "sum", append(floats(1, 2, 3), Str("nope")), 0, floats(6)},
		{"ints between floats", "sum", []Value{Float(0.5), Int(2), Bool(true), Float(0.25)}, 0, floats(2.75)},
	})
}

func TestMeanEmptyNotOK(t *testing.T) {
	runAggCases(t, []aggCase{
		{"no samples", "mean", nil, 0, nil},
		{"only strings", "mean", []Value{Str("only strings")}, 0, nil},
		{"string bucket omitted", "mean", []Value{Str("a"), Float(4), Float(6)}, 10, floats(4, 6)},
	})
}

func TestMinMaxNegativeValues(t *testing.T) {
	vals := floats(-5, -2, -9)
	runAggCases(t, []aggCase{
		{"max", "max", vals, 0, floats(-2)},
		{"min", "min", vals, 0, floats(-9)},
	})
}

func TestFirstLastKeepKind(t *testing.T) {
	vals := []Value{Str("a"), Int(2), Str("c")}
	runAggCases(t, []aggCase{
		{"first", "first", vals, 0, []Value{Str("a")}},
		{"last", "last", vals, 0, []Value{Str("c")}},
		{"first per bucket", "first", vals, 20, []Value{Str("a"), Str("c")}},
		{"last per bucket", "last", vals, 20, []Value{Int(2), Str("c")}},
	})
}

func TestSpread(t *testing.T) {
	runAggCases(t, []aggCase{
		{"floats", "spread", floats(10, 4, 7), 0, floats(6)},
		{"with a string", "spread", []Value{Int(10), Str("x"), Float(4)}, 0, floats(6)},
	})
}

func TestStddevMatchesDefinition(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var mean, m2 float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		m2 += (v - mean) * (v - mean)
	}
	want := math.Sqrt(m2 / float64(len(vals)-1))
	for _, bs := range []int{neverSeal, 2} {
		db := Open(Options{BlockSize: bs})
		for i, v := range vals {
			if err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": Float(v)}, Time: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := db.Query(`SELECT stddev("f") FROM "m"`)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Series[0].Rows()[0].Values[0].F; math.Abs(got-want) > 1e-12 {
			t.Fatalf("block size %d: stddev = %v, want %v", bs, got, want)
		}
	}
}

func TestStddevNeedsTwoSamples(t *testing.T) {
	runAggCases(t, []aggCase{
		{"one sample", "stddev", floats(1), 0, nil},
		{"one numeric among strings", "stddev", []Value{Str("a"), Float(1), Str("b")}, 0, nil},
		{"two samples", "stddev", floats(1, 3), 0, floats(math.Sqrt2)},
	})
}

func TestMedianOddEven(t *testing.T) {
	runAggCases(t, []aggCase{
		{"odd", "median", floats(9, 1, 5), 0, floats(5)},
		{"even", "median", floats(1, 2, 3, 4), 0, floats(2.5)},
		{"ints and a string", "median", []Value{Int(4), Str("x"), Int(1), Float(2)}, 0, floats(2)},
	})
}

// TestResetClearsState: a bucket's answer is its own, whatever the
// bucket before it held.
func TestResetClearsState(t *testing.T) {
	var cases []aggCase
	for _, fn := range aggNames {
		vals, want := floats(1, 2, 3, 5), floats(5)
		switch fn {
		case "count":
			want = []Value{Int(1)}
		case "spread":
			want = floats(0)
		case "stddev":
			vals, want = floats(1, 2, 3, 5, 5), floats(0)
		}
		first := map[string]Value{"count": Int(3), "sum": Float(6), "mean": Float(2), "max": Float(3), "min": Float(1),
			"spread": Float(2), "first": Float(1), "last": Float(3), "stddev": Float(1), "median": Float(2)}[fn]
		cases = append(cases, aggCase{fn, fn, vals, 30, append([]Value{first}, want...)})
	}
	runAggCases(t, cases)
}

// TestAggregateBitsIndependentOfRepresentation: one sequence of values
// gets one answer, bit for bit, whether its column is stored as
// float64s, as mixed Value cells (a string among the floats) or as a
// sealed block the decode cache keeps as float32s. sum, mean and
// stddev meet +Inf, −Inf and a NaN, where the operand order of each
// addition decides the NaN's bits; median meets ±0, where the sort's
// order decides the sign.
func TestAggregateBitsIndependentOfRepresentation(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000000) // float32-exact, unlike math.NaN()
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		fns  []string
		vals []float64
	}{
		{[]string{"sum", "mean", "stddev"}, []float64{math.Inf(1), math.Inf(-1), nan}},
		{[]string{"sum", "mean", "stddev"}, []float64{nan, math.Inf(-1), 1, math.Inf(1)}},
		{[]string{"median"}, []float64{0, negZero, 2, negZero, -1}},
		{[]string{"median"}, []float64{negZero, 0, 0, negZero, 3, -3, negZero}},
	} {
		n := len(c.vals)
		write := func(db *DB, vals []Value) *DB {
			for i, v := range vals {
				if err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": v}, Time: int64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}
		stores := map[string]*DB{
			"float":   write(Open(Options{BlockSize: neverSeal}), floats(c.vals...)),
			"mixed":   write(Open(Options{BlockSize: neverSeal}), append(floats(c.vals...), Str("x"))),
			"float32": write(Open(Options{BlockSize: n}), floats(c.vals...)),
		}
		for _, fn := range c.fns {
			stmt := fmt.Sprintf(`SELECT %s("f") FROM "m" WHERE time >= 0 AND time < %d`, fn, n)
			answers := map[string]Value{}
			for name, db := range stores {
				for pass := 0; pass < 2; pass++ { // the second pass reads the decode cache
					res, err := db.Query(stmt)
					if err != nil {
						t.Fatal(err)
					}
					answers[name] = res.Series[0].Rows()[0].Values[0]
				}
			}
			for _, sh := range stores["float32"].view.Load().shards {
				for _, blk := range sh.series["m"].field("f").blocks {
					if p := blk.cache.Load(); p == nil || p.vals.kind != vecFloat32 {
						t.Fatalf("%v: the sealed block is not cached as float32s", c.vals)
					}
				}
			}
			for _, name := range []string{"mixed", "float32"} {
				if a, b := answers[name], answers["float"]; !sameValue(a, b) {
					t.Errorf("%s%v: %s column answers %v (%#x), float column %v (%#x)",
						fn, c.vals, name, a, math.Float64bits(a.F), b, math.Float64bits(b.F))
				}
			}
		}
	}
}
