package tsdb

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestTimeVecMatchesExplicit: the prefix/suffix form answers every
// accessor exactly as the explicit slice it stands for, including runs
// at either end of the int64 range, a one-point prefix, a step too wide
// for 32 bits and one whose next time would pass MaxInt64;
// compactTimes keeps the longest regular prefix, and building the
// vector one append at a time gives exactly the same form.
func TestTimeVecMatchesExplicit(t *testing.T) {
	regular := func(t0, step int64, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = t0 + int64(i)*step
		}
		return s
	}
	type tc struct {
		times  []int64
		prefix int // the regular prefix's length
	}
	cases := []tc{
		{regular(0, 60, 1024), 1024},
		{regular(-3600, 60, 100), 100},
		{regular(-7, 3, 5), 5},
		{regular(1<<40, 1, 2), 2},
		{regular(math.MinInt64, math.MaxInt32, 5), 5},
		{regular(math.MaxInt64-4*math.MaxInt32, math.MaxInt32, 5), 5},
		{regular(math.MinInt64, math.MaxInt32+1, 3), 1}, // the step needs 33 bits
		{regular(math.MinInt64, math.MaxInt64, 2), 1},
		{regular(math.MinInt64, 1<<62, 4), 1},
		{[]int64{42}, 1},
		{[]int64{math.MinInt64}, 1},
		{[]int64{math.MaxInt64}, 1},
		{[]int64{math.MinInt64, math.MaxInt64}, 1}, // the step overflows
		{[]int64{math.MinInt64, 0, math.MaxInt64}, 1},
		{[]int64{math.MaxInt64 - 11, math.MaxInt64 - 6, math.MaxInt64 - 1, math.MaxInt64}, 3}, // the next step overflows
		{[]int64{math.MaxInt64 - 10, math.MaxInt64 - 5, math.MaxInt64, math.MaxInt64}, 3},
		{[]int64{math.MinInt64, math.MinInt64 + 60, math.MinInt64 + 120, math.MinInt64 + 121, math.MaxInt64}, 3},
		{[]int64{5, 5, 5}, 1},
		{[]int64{0, 60, 60, 120}, 2},
		{[]int64{0, 60, 180}, 2},
		{[]int64{0, 60, 120, 120, 180}, 3},
		{[]int64{}, 0},
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		s := regular(rng.Int63n(1e9)-5e8, 1+rng.Int63n(600), n)
		c := tc{times: s, prefix: n}
		if trial%2 == 1 && n > 2 { // one delta off the step, possibly to a duplicate
			i, step := 1+rng.Intn(n-1), s[1]-s[0]
			d := rng.Int63n(2 * step)
			if d == step {
				d = 0
			}
			for j := i; j < n; j++ {
				s[j] += d - step
			}
			c.prefix = i
			if i == 1 && d > 0 {
				c.prefix = 2 // the second time sets the step
			}
		}
		cases = append(cases, c)
	}

	for ci, c := range cases {
		s := c.times
		compact := compactTimes(s)
		var appended timeVec
		for _, x := range s {
			appended.append(x, 0)
		}
		if !reflect.DeepEqual(appended, compact) {
			t.Fatalf("case %d %v: appended %+v, compactTimes %+v", ci, s, appended, compact)
		}
		if int(compact.n) != c.prefix || (compact.n < 2 && compact.step != 0) || (compact.t != nil) != (len(s) > c.prefix) {
			t.Fatalf("case %d %v: compactTimes %+v, want a %d-point prefix", ci, s, compact, c.prefix)
		}
		if len(s) == 0 {
			continue
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
// what it keeps — 8 B of time per point after its regular prefix, whose
// times are two numbers, plus per point 4 B of value when every float
// is float32-exact and 8 B otherwise — and the cache's resident bytes
// are exactly the sum of those charges, one entry per block holding a
// payload, through scans, a range clear and an unseal.
func TestBlockDecodeCacheChargesStoredTimes(t *testing.T) {
	for _, c := range []struct {
		jitter, inexact bool
		charge          int64
	}{
		{false, false, 4 << 10},
		{true, false, 4<<10 + 8*524}, // point 500 ends the prefix; 524 times stay explicit
		{false, true, 8 << 10},
		{true, true, 8<<10 + 8*524},
	} {
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
		if cs := db.CacheStats(); cs.ResidentBytes != c.charge || cs.Entries != 1 {
			t.Fatalf("jitter %t, inexact %t: cache %+v, want one entry of %d B", c.jitter, c.inexact, cs, c.charge)
		}
	}

	// Series "reg" sit on the minute grid, so a block is regular
	// exactly when it covers a contiguous run of it; series "jit" step
	// 61, 61, 58 s, so each of their blocks keeps a two- or three-point
	// prefix.
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
					p, err := blk.validate()
					if err != nil {
						t.Fatal(err)
					}
					// The readings are float32-exact.
					want += 4*int64(blk.count) + 8*int64(blk.count-regularPrefix(p.times.t))
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

// regularPrefix is the length of the longest run of ts, from its first
// time on, that advances by one positive step.
func regularPrefix(ts []int64) int {
	n := min(len(ts), 1)
	for n < len(ts) && ts[n] > ts[n-1] && (n == 1 || ts[n]-ts[n-1] == ts[1]-ts[0]) {
		n++
	}
	return n
}

// TestTimeVecEdges: a one-point tail and a one-point window, which
// keeps its parent's step, search without dividing by the step, and a
// prefix at its 32-bit length limit hands the next time to the suffix.
// Times at either end of the int64 range are TestTimeVecMatchesExplicit
// cases.
func TestTimeVecEdges(t *testing.T) {
	var one column
	one.times.append(42, 0)
	if lo, hi := one.rangeIndexes(42, 43); lo != 0 || hi != 1 || one.times.step != 0 {
		t.Errorf("one-point tail %+v: rangeIndexes(42, 43) = [%d, %d)", one.times, lo, hi)
	}
	three := compactTimes([]int64{0, 60, 120})
	last := three.slice(2, 3)
	if last.n != 1 || last.step != 60 || last.search(120) != 0 || last.search(121) != 1 || last.runEnd(0, 500) != 1 {
		t.Errorf("one-point window %+v searches wrong", last)
	}

	full := timeVec{t0: 0, step: 1, n: math.MaxInt32}
	full.append(math.MaxInt32, 0)
	if full.n != math.MaxInt32 || !slices.Equal(full.t, []int64{math.MaxInt32}) {
		t.Errorf("append past the prefix limit: %+v", full)
	}
	if got := full.search(math.MaxInt32); got != math.MaxInt32 || full.at(got) != math.MaxInt32 {
		t.Errorf("search(MaxInt32) = %d", got)
	}
}

// TestTimeVecSuffixGrowsWithValues: a tail's explicit times
// reallocate in the write that reallocates its values, never at their
// own powers of two. Every polled series gets its suffix in the same
// cycle (a collector's first cycle after a gap), so a suffix growing
// on its own would move every such tail's footprint in the same cycle.
func TestTimeVecSuffixGrowsWithValues(t *testing.T) {
	db := Open(Options{})
	history := make([]Point, 360)
	for i := range history {
		history[i] = walPoint("n1", int64(60*i), float64(i))
	}
	if err := db.WritePoints(history); err != nil {
		t.Fatal(err)
	}
	// One point a cycle, from 120 s after the history's last time on.
	for cycle := int64(0); cycle < 300; cycle++ {
		if err := db.WritePoints([]Point{walPoint("n1", 60*(361+cycle), 1)}); err != nil {
			t.Fatal(err)
		}
		for _, sh := range db.view.Load().shards {
			for _, sr := range sh.series {
				col := sr.field("Reading")
				tv := col.times
				if tv.n != 360 || len(tv.t) != int(cycle)+1 || int(tv.n)+cap(tv.t) != cap(col.vals.f) {
					t.Fatalf("cycle %d: %d regular times, suffix %d of %d, value capacity %d; want the suffix to end where the values do",
						cycle, tv.n, len(tv.t), cap(tv.t), cap(col.vals.f))
				}
			}
		}
	}
}

// TestTimeVecTailsMatchExplicit drives seeded batches of on-cadence
// points, gaps, drifted and duplicate times, and out-of-order points
// (inside the tail and behind sealed blocks) through a durable DB with
// small blocks, so seals cut the tails' prefix/suffix seams, with range
// clears between them. After every batch each raw tail and cached
// block payload must be compactTimes of its own times. At intervals,
// every aggregate, bucketing and raw scan must answer bit for bit as a
// twin of the same data whose tails keep every time explicitly and as
// the reference model, and a snapshot restore and a WAL recovery must
// hold exactly the live tails.
func TestTimeVecTailsMatchExplicit(t *testing.T) {
	const nSeries, bs, cadence = 3, 16, 60
	forms := func(v *dbView) map[string]timeVec {
		out := map[string]timeVec{}
		for start, sh := range v.shards {
			for key, sr := range sh.series {
				for _, f := range sr.fields {
					out[fmt.Sprint(start, key, f.name)] = f.col.times
				}
			}
		}
		return out
	}
	canonical := func(t *testing.T, v *dbView, when string) (prefix, explicit int) {
		t.Helper()
		for _, sh := range v.shards {
			for key, sr := range sh.series {
				for _, f := range sr.fields {
					tv := &f.col.times
					if want := compactTimes(tv.appendTo(nil)); !reflect.DeepEqual(*tv, want) {
						t.Fatalf("%s: %s tail %+v, compactTimes gives %+v", when, key, *tv, want)
					}
					prefix, explicit = prefix+int(tv.n), explicit+len(tv.t)
					for _, blk := range f.col.blocks {
						if p := blk.cache.Load(); p != nil && !reflect.DeepEqual(p.times, compactTimes(p.times.appendTo(nil))) {
							t.Fatalf("%s: %s block [%d, %d] cached times %+v are not canonical", when, key, blk.minT, blk.maxT, p.times)
						}
					}
				}
			}
		}
		return prefix, explicit
	}
	// explicitTwin restores a snapshot of db and rewrites every tail's
	// times to the all-explicit form.
	explicitTwin := func(t *testing.T, db *DB) *DB {
		t.Helper()
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		twin, err := RestoreOptions(&buf, Options{BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range twin.view.Load().shards {
			for _, sr := range sh.series {
				for _, f := range sr.fields {
					f.col.times = timeVec{t: f.col.times.appendTo(nil)}
				}
			}
		}
		return twin
	}
	answer := func(t *testing.T, db *DB, stmt string) Result {
		t.Helper()
		res, err := db.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		out := *res
		out.Stats = QueryStats{PointsScanned: res.Stats.PointsScanned, BytesScanned: res.Stats.BytesScanned, Rows: res.Stats.Rows}
		return out
	}

	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 41))
		dir := t.TempDir()
		opts := Options{ShardDuration: 6 * 3600, BlockSize: bs}
		db, _, err := OpenDurable(opts, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		var ref []refPoint
		last := make([]int64, nSeries)
		for s := range last {
			last[s] = int64(s * 7)
		}
		var maxPrefix, maxExplicit, seamSeals, behindSealed int
		check := func(t *testing.T, when string) {
			t.Helper()
			twin := explicitTwin(t, db)
			end := slices.Max(last) + 1
			var stmts []string
			for _, w := range [][2]int64{{0, end}, {rng.Int63n(end / 2), end - rng.Int63n(end/4)}} {
				for _, agg := range []string{"max", "min", "sum", "mean", "count"} {
					for _, iv := range []int64{60, 420, 3600} {
						stmts = append(stmts, fmt.Sprintf(`SELECT %s("f") FROM "m" WHERE time >= %d AND time < %d GROUP BY time(%ds), "id"`, agg, w[0], w[1], iv))
					}
					stmts = append(stmts, fmt.Sprintf(`SELECT %s("f") FROM "m" WHERE time >= %d AND time < %d GROUP BY time(300s)`, agg, w[0], w[1]))
				}
				stmts = append(stmts,
					fmt.Sprintf(`SELECT "f" FROM "m" WHERE time >= %d AND time < %d GROUP BY "id"`, w[0], w[1]),
					fmt.Sprintf(`SELECT "f" FROM "m" WHERE time >= %d AND time < %d`, w[0], w[1]))
			}
			for _, stmt := range stmts {
				if got, want := answer(t, db, stmt), answer(t, twin, stmt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s\n got %+v\nwant %+v (explicit times)", when, stmt, got, want)
				}
			}
			for s := range nSeries {
				for _, agg := range []string{"max", "sum", "count"} {
					stmt := fmt.Sprintf(`SELECT %s("f") FROM "m" WHERE "id"='s%d' AND time >= 0 AND time < %d GROUP BY time(420s)`, agg, s, end)
					got := map[int64]float64{}
					for _, rs := range answer(t, db, stmt).Series {
						for _, row := range rs.Rows() {
							got[row.Time], _ = row.Values[0].AsFloat()
						}
					}
					if want := refAggregate(ref, s, 0, end, 420, agg); !maps.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("%s: %s\n got %v\nwant %v", when, stmt, got, want)
					}
				}
			}
		}
		for batchNo := 0; batchNo < 120; batchNo++ {
			var pts []Point
			for k := 1 + rng.Intn(6); k > 0; k-- {
				s := rng.Intn(nSeries)
				ts := last[s] + cadence
				switch r := rng.Intn(100 + 200*(trial%2)); { // odd trials drift a third as often
				case r < 8: // a gap of whole cycles
					ts = last[s] + cadence*int64(2+rng.Intn(4))
				case r < 16: // a drifted stamp, a second or two off the cadence
					ts += int64(1+rng.Intn(2)) * int64(1-2*rng.Intn(2))
				case r < 21: // a duplicate time
					ts = last[s]
				case r < 26: // out of order, usually inside the tail
					ts = last[s] - cadence*int64(1+rng.Intn(6))
				case r < 29: // far behind: under sealed blocks
					ts = rng.Int63n(last[s] + 1)
				}
				last[s] = max(last[s], ts)
				v := float64(rng.Intn(4000)-2000) / 4
				ref = append(ref, refPoint{series: s, t: ts, v: v})
				pts = append(pts, Point{Measurement: "m", Tags: Tags{{"id", fmt.Sprintf("s%d", s)}}, Fields: map[string]Value{"f": Float(v)}, Time: ts})
			}
			before := db.view.Load()
			_, explicitBefore := canonical(t, before, "before the batch")
			for _, p := range pts {
				if sh := before.shards[p.Time-mod(p.Time, opts.ShardDuration)]; sh != nil {
					if sr := sh.series[pointKey(&p)]; sr != nil && len(sr.fields[0].col.blocks) > 0 && p.Time < sr.fields[0].col.blocks[len(sr.fields[0].col.blocks)-1].maxT {
						behindSealed++
					}
				}
			}
			if err := db.WritePoints(pts); err != nil {
				t.Fatal(err)
			}
			after := db.view.Load()
			prefix, explicit := canonical(t, after, fmt.Sprintf("trial %d batch %d", trial, batchNo))
			maxPrefix, maxExplicit = max(maxPrefix, prefix), max(maxExplicit, explicit)
			if after.stats.BlocksSealed > before.stats.BlocksSealed && explicitBefore > 0 {
				seamSeals++
			}
			if batchNo%15 == 14 { // a range clear, its ends on or off the grid
				start := rng.Int63n(slices.Max(last) + 1)
				end := start + cadence*int64(1+rng.Intn(20)) + rng.Int63n(2)
				if _, err := db.clearRange("m", start, end); err != nil {
					t.Fatal(err)
				}
				ref = slices.DeleteFunc(ref, func(p refPoint) bool { return p.t >= start && p.t < end })
				canonical(t, db.view.Load(), fmt.Sprintf("trial %d clear [%d, %d)", trial, start, end))
			}
			if batchNo == 60 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if batchNo%20 == 19 {
				when := fmt.Sprintf("trial %d batch %d", trial, batchNo)
				check(t, when)
				var buf bytes.Buffer
				if err := db.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreOptions(&buf, Options{BlockSize: bs})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := forms(restored.view.Load()), forms(db.view.Load()); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: restored tails differ from the live ones", when)
				}
			}
		}
		if err := db.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		recovered, _, err := OpenDurable(opts, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := forms(recovered.view.Load()), forms(db.view.Load()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: recovered tails differ from the live ones", trial)
		}
		canonical(t, recovered.view.Load(), "after recovery")
		if err := recovered.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		cs := db.Compression()
		t.Logf("trial %d: %d blocks (%d cached), tails up to %d regular and %d explicit times, %d seals past a suffix, %d writes behind sealed blocks",
			trial, cs.Blocks, cs.BlocksCached, maxPrefix, maxExplicit, seamSeals, behindSealed)
		if cs.BlocksCached == 0 || maxPrefix == 0 || maxExplicit == 0 || seamSeals == 0 || behindSealed == 0 {
			t.Fatalf("trial %d exercised too little: prefix %d, explicit %d, seals past a suffix %d, writes behind sealed blocks %d",
				trial, maxPrefix, maxExplicit, seamSeals, behindSealed)
		}
	}
}
