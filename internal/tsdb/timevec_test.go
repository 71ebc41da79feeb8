package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestTimeVecMatchesExplicit: the regular form answers every accessor
// exactly as the explicit slice it stands for, including runs whose
// span covers most of the int64 range, and compactTimes picks it only
// for a run of at least two points with one positive step.
func TestTimeVecMatchesExplicit(t *testing.T) {
	regular := func(t0, step int64, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = t0 + int64(i)*step
		}
		return s
	}
	type tc struct {
		times   []int64
		regular bool
	}
	cases := []tc{
		{regular(0, 60, 1024), true},
		{regular(-3600, 60, 100), true},
		{regular(-7, 3, 5), true},
		{regular(1<<40, 1, 2), true},
		{regular(math.MinInt64, math.MaxInt64, 2), true},
		{regular(math.MinInt64, 1<<62, 4), true},
		{regular(math.MaxInt64-3<<61, 1<<61, 4), true},
		{[]int64{42}, false},
		{[]int64{math.MinInt64}, false},
		{[]int64{math.MaxInt64}, false},
		{[]int64{math.MinInt64, math.MaxInt64}, false}, // the step overflows
		{[]int64{math.MinInt64, 0, math.MaxInt64}, false},
		{[]int64{5, 5, 5}, false},
		{[]int64{0, 60, 60, 120}, false},
		{[]int64{0, 60, 180}, false},
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		s := regular(rng.Int63n(1e9)-5e8, 1+rng.Int63n(600), n)
		c := tc{times: s, regular: true}
		if trial%2 == 1 && n > 2 { // one delta off the step, possibly to a duplicate
			i, step := 1+rng.Intn(n-1), s[1]-s[0]
			d := rng.Int63n(2 * step)
			if d == step {
				d = 0
			}
			for j := i; j < n; j++ {
				s[j] += d - step
			}
			c.regular = false
		}
		cases = append(cases, c)
	}

	for ci, c := range cases {
		s := c.times
		compact := compactTimes(s)
		if got := compact.t == nil; got != c.regular {
			t.Fatalf("case %d %v: regular form %t, want %t", ci, s, got, c.regular)
		}
		probes := []int64{math.MinInt64, math.MaxInt64}
		for _, x := range s {
			probes = append(probes, x, x-1, x+1)
		}
		n := len(s)
		for _, v := range []timeVec{compact, {t: s}} {
			if v.len() != n {
				t.Fatalf("case %d: len %d, want %d", ci, v.len(), n)
			}
			for i := range s {
				if v.at(i) != s[i] {
					t.Fatalf("case %d: at(%d) = %d, want %d", ci, i, v.at(i), s[i])
				}
			}
			if got := v.appendTo([]int64{7}); !slices.Equal(got, append([]int64{7}, s...)) {
				t.Fatalf("case %d: appendTo = %v", ci, got)
			}
			for k := 0; k < 8; k++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n-lo+1)
				w := v.slice(lo, hi)
				if got := w.appendTo(nil); w.len() != hi-lo || !slices.Equal(got, s[lo:hi]) {
					t.Fatalf("case %d: slice(%d, %d) = %v (len %d), want %v", ci, lo, hi, got, w.len(), s[lo:hi])
				}
				for _, x := range probes {
					want := sort.Search(hi-lo, func(i int) bool { return s[lo+i] >= x })
					if got := w.search(x); got != want {
						t.Fatalf("case %d: slice(%d, %d).search(%d) = %d, want %d", ci, lo, hi, x, got, want)
					}
				}
			}
			for _, x := range probes {
				want := sort.Search(n, func(i int) bool { return s[i] >= x })
				if got := v.search(x); got != want {
					t.Fatalf("case %d %v: search(%d) = %d, want %d", ci, s, x, got, want)
				}
				for _, j := range []int{0, rng.Intn(n), n - 1} {
					if got := v.runEnd(j, x); got != max(want, j+1) {
						t.Fatalf("case %d %v: runEnd(%d, %d) = %d, want %d", ci, s, j, x, got, max(want, j+1))
					}
				}
			}
		}
	}
}

// TestBlockTimeFormsMatchReference stores the same readings twice: at
// a fixed cadence, so every sealed block decodes to the regular time
// form, and with one timestamp per block nudged off the cadence, so
// every block stays explicit. Both must agree bit for bit with the
// reference model for every aggregate, over ranges that start and end
// mid-block and buckets that do not divide the cadence and straddle
// block → block and block → tail, and raw selects must return exactly
// the stored samples.
func TestBlockTimeFormsMatchReference(t *testing.T) {
	const bs, cadence, n = 64, 60, 5*64 + 37
	const t0 = 1_587_384_017
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64()*1e5) / 7
	}
	at := func(i int) int64 { return t0 + int64(i)*cadence }
	ranges := [][2]int64{
		{t0, at(n)},
		{at(20) + 13, at(3*bs+5) + 1},
		{at(bs + 30), at(5*bs+20) - 7},
		{at(3) + 1, at(40)},
		{at(2*bs - 1), at(2*bs + 1)},
	}
	for _, jitter := range []bool{false, true} {
		db := Open(Options{BlockSize: bs})
		points := make([]refPoint, n)
		batch := make([]Point, n)
		for i := range points {
			ts := at(i)
			if jitter && i < 5*bs && i%bs == 10 {
				ts += 7
			}
			points[i] = refPoint{t: ts, v: vals[i]}
			batch[i] = Point{Measurement: "m", Fields: map[string]Value{"f": Float(vals[i])}, Time: ts}
		}
		if err := db.WritePoints(batch); err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			for _, iv := range []int64{45, 420, 1507, 3600} {
				for _, agg := range []string{"max", "min", "sum", "mean", "count"} {
					stmt := fmt.Sprintf(`SELECT %s("f") FROM "m" WHERE time >= %d AND time < %d GROUP BY time(%ds)`, agg, r[0], r[1], iv)
					res, err := db.Query(stmt)
					if err != nil {
						t.Fatal(err)
					}
					want := refAggregate(points, 0, r[0], r[1], iv, agg)
					got := 0
					for _, s := range res.Series {
						for _, row := range s.Rows() {
							f, _ := row.Values[0].AsFloat()
							if w, ok := want[row.Time]; !ok || math.Float64bits(w) != math.Float64bits(f) {
								t.Fatalf("jitter %t: %s: bucket %d = %v, reference %v (present %t)", jitter, stmt, row.Time, f, w, ok)
							}
							got++
						}
					}
					if got != len(want) {
						t.Fatalf("jitter %t: %s: %d buckets, reference has %d", jitter, stmt, got, len(want))
					}
				}
			}
			stmt := fmt.Sprintf(`SELECT "f" FROM "m" WHERE time >= %d AND time < %d`, r[0], r[1])
			res, err := db.Query(stmt)
			if err != nil {
				t.Fatal(err)
			}
			var want []refPoint
			for _, p := range points {
				if p.t >= r[0] && p.t < r[1] {
					want = append(want, p)
				}
			}
			rows := res.Series[0].Rows()
			if len(rows) != len(want) {
				t.Fatalf("jitter %t: %s: %d rows, want %d", jitter, stmt, len(rows), len(want))
			}
			for i, row := range rows {
				if row.Time != want[i].t || math.Float64bits(row.Values[0].F) != math.Float64bits(want[i].v) {
					t.Fatalf("jitter %t: %s: row %d = (%d, %v), want (%d, %v)", jitter, stmt, i, row.Time, row.Values[0].F, want[i].t, want[i].v)
				}
			}
		}
		blocks := 0
		for _, sh := range db.view.Load().shards {
			for _, sr := range sh.series {
				for _, blk := range sr.field("f").blocks {
					blocks++
					if p := blk.cache.Load(); p == nil || (p.times.t == nil) == jitter {
						t.Fatalf("jitter %t: block [%d, %d] cached as %+v", jitter, blk.minT, blk.maxT, p)
					}
				}
			}
		}
		if blocks != 5 {
			t.Fatalf("jitter %t: %d sealed blocks, want 5", jitter, blocks)
		}
	}
}

// TestBlockDecodeCacheChargesStoredTimes: a decoded block is charged
// what it keeps — per point, 8 B of time in an explicit block and none
// in a regular one, whose times are two numbers, plus 4 B of value when
// every float is float32-exact and 8 B otherwise — and the cache's
// resident bytes are exactly the sum of those charges, one entry per
// block holding a payload, through scans, a range clear and an unseal.
func TestBlockDecodeCacheChargesStoredTimes(t *testing.T) {
	for _, c := range []struct {
		jitter, inexact bool
		perPoint        int64
	}{{false, false, 4}, {true, false, 12}, {false, true, 8}, {true, true, 16}} {
		db := Open(Options{BlockSize: 1024})
		pts := make([]Point, 1024)
		for i := range pts {
			v := float64(i % 13)
			if c.inexact && i == 700 {
				v = 1<<24 + 1 // one value float32 cannot hold keeps the block at 8 B
			}
			pts[i] = walPoint("n1", int64(60*i), v)
		}
		if c.jitter {
			pts[500].Time += 7
		}
		if err := db.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(`SELECT count("Reading") FROM "Power"`); err != nil {
			t.Fatal(err)
		}
		if cs := db.CacheStats(); cs.ResidentBytes != c.perPoint<<10 || cs.Entries != 1 {
			t.Fatalf("jitter %t, inexact %t: cache %+v, want one entry of %d B", c.jitter, c.inexact, cs, c.perPoint<<10)
		}
	}

	// Series "reg" sit on the minute grid, so a block is regular
	// exactly when it covers a contiguous run of it; series "jit" are
	// off the grid at every point, so none of their blocks is.
	const bs = 32
	db := Open(Options{BlockSize: bs})
	var pts []Point
	for _, node := range []string{"reg0", "reg1", "jit0", "jit1"} {
		for i := 0; i < 200; i++ {
			ts := int64(60 * i)
			if node[0] == 'j' {
				ts += int64(i % 3)
			}
			pts = append(pts, walPoint(node, ts, float64(i%17)))
		}
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		var want, cached int64
		for _, sh := range db.view.Load().shards {
			for _, sr := range sh.series {
				for _, blk := range sr.field("Reading").blocks {
					if blk.cache.Load() == nil {
						continue
					}
					cached++
					perPoint := int64(12) // the readings are float32-exact
					if node, _ := sr.tags.Get("NodeId"); node[0] == 'r' && blk.maxT-blk.minT == int64(blk.count-1)*60 {
						perPoint = 4
					}
					want += perPoint * int64(blk.count)
				}
			}
		}
		cs := db.CacheStats()
		if cs.ResidentBytes != want || int64(cs.Entries) != cached || db.Compression().BlocksCached != cached {
			t.Fatalf("%s: cache %+v; blocks hold %d payloads charging %d B", when, cs, cached, want)
		}
	}
	scan := func(when string) {
		t.Helper()
		if _, err := db.Query(`SELECT max("Reading") FROM "Power" GROUP BY time(7m), "NodeId"`); err != nil {
			t.Fatal(err)
		}
		check(when)
	}
	scan("after a scan")
	scan("after a second scan")
	if n, err := db.clearRange("Power", 60*50+1, 60*90); err != nil || n == 0 {
		t.Fatalf("range clear removed %d (err %v)", n, err)
	}
	check("after a range clear")
	scan("after a scan of the cleared data")
	if err := db.WritePoint(walPoint("reg0", -60, 1)); err != nil {
		t.Fatal(err)
	}
	check("after an unseal")
	scan("after a scan of the unsealed column")
}
