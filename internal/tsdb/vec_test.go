package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// vecOf builds a vector from Values through the write path's append,
// so it lands in whatever representation the values call for.
func vecOf(vals []Value) valueVec {
	var v valueVec
	for _, x := range vals {
		v.append(x)
	}
	return v
}

// values flattens a vector through its generic accessor.
func (v *valueVec) values() []Value {
	out := make([]Value, v.len())
	for i := range out {
		out[i] = v.at(i)
	}
	return out
}

// floatPayload is a decoded n-point float block with explicit
// (irregular) times, 16 B per point.
func floatPayload(n int) *blockPayload {
	return &blockPayload{times: timeVec{t: make([]int64, n)}, vals: valueVec{kind: vecFloat, f: make([]float64, n)}}
}

// genVecColumn fabricates n time-sorted samples of one column shape:
// homogeneous floats, homogeneous ints, strings and bools, or a column
// that switches kind mid-stream (floats, then ints, one stray string,
// floats again). Duplicate timestamps occur, always adjacent in write
// order. Floats are finite so results compare with DeepEqual.
func genVecColumn(rng *rand.Rand, style string, n int) ([]int64, []Value) {
	times := make([]int64, n)
	vals := make([]Value, n)
	t := int64(1_000_000)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) > 0 {
			t += int64(20 + rng.Intn(90))
		}
		times[i] = t
		f := Float(math.Round(rng.NormFloat64()*1e4) / 8)
		switch style {
		case "float":
			vals[i] = f
		case "int":
			vals[i] = Int(rng.Int63n(2000) - 1000)
		case "text":
			if rng.Intn(3) == 0 {
				vals[i] = Bool(rng.Intn(2) == 0)
			} else {
				vals[i] = Str(fmt.Sprintf("state-%d", rng.Intn(7)))
			}
		case "switch":
			switch {
			case i == 2*n/3:
				vals[i] = Str("Critical")
			case i >= n/3 && i < n/2:
				vals[i] = Int(rng.Int63n(500))
			default:
				vals[i] = f
			}
		}
	}
	return times, vals
}

// vecRepresentations stores the same column five ways: all in the raw
// tail, sealed into blocks, sealed and spilled to the cold tier,
// written out of order so the sealed blocks are unsealed, re-sorted and
// re-sealed, and split across two series of one group.
func vecRepresentations(t *testing.T, times []int64, vals []Value) map[string]*DB {
	t.Helper()
	pts := make([]Point, len(times))
	for i := range times {
		pts[i] = Point{Measurement: "m", Tags: Tags{{"id", "x"}}, Fields: map[string]Value{"f": vals[i]}, Time: times[i]}
	}
	write := func(db *DB, batches ...[]Point) *DB {
		for _, b := range batches {
			if err := db.WritePoints(b); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	const shard, bs = 7200, 16 // several shards, several blocks per shard
	reps := map[string]*DB{
		"tail":   write(Open(Options{ShardDuration: shard, BlockSize: neverSeal}), pts),
		"sealed": write(Open(Options{ShardDuration: shard, BlockSize: bs}), pts),
		"cold":   write(Open(Options{ShardDuration: shard, BlockSize: bs, ColdDir: t.TempDir()}), pts),
	}
	if cs := reps["tail"].Compression(); cs.Blocks != 0 {
		t.Fatalf("tail representation sealed %d blocks", cs.Blocks)
	}
	if cs := reps["sealed"].Compression(); cs.Blocks == 0 {
		t.Fatal("sealed representation has no blocks")
	}
	if _, err := reps["cold"].SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if cs := reps["cold"].ColdStats(); cs.BlocksCold == 0 {
		t.Fatal("cold representation spilled nothing")
	}
	// The older third arrives last, split where duplicates do not
	// straddle, so the stable re-sort reproduces the in-order column.
	split := len(pts) / 3
	for times[split] == times[split-1] {
		split++
	}
	reps["unseal"] = write(Open(Options{ShardDuration: shard, BlockSize: bs}), pts[split:], pts[:split])
	if cs := reps["unseal"].Compression(); cs.Blocks == 0 {
		t.Fatal("unseal representation did not re-seal")
	}
	// The same samples dealt across two series in alternating stretches
	// (cut between distinct timestamps): one group scans both, its
	// chunk list is out of order and is merged back into time order.
	dealt := append([]Point(nil), pts...)
	y, next := false, 40
	for i := range dealt {
		if i >= next && times[i] != times[i-1] {
			y, next = !y, i+40
		}
		if y {
			dealt[i].Tags = Tags{{"id", "y"}}
		}
	}
	reps["interleaved"] = write(Open(Options{ShardDuration: shard, BlockSize: bs}), dealt)
	return reps
}

// TestVecRepresentationsMatchReference is the vector's property test:
// for float, int, string/bool and kind-switching columns, every
// aggregate over every representation is bit-identical to the raw-tail
// answer, the five aggregates the reference model covers are
// bit-identical to it, and PointsScanned/BytesScanned are the sample
// count and canonical encoded size whatever the representation.
func TestVecRepresentationsMatchReference(t *testing.T) {
	aggs := []string{"count", "sum", "mean", "max", "min", "spread", "first", "last", "stddev", "median"}
	for _, style := range []string{"float", "int", "text", "switch"} {
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + int64(len(style))))
			times, vals := genVecColumn(rng, style, 280+rng.Intn(80))
			reps := vecRepresentations(t, times, vals)

			span := times[len(times)-1] - times[0]
			start := times[0] + rng.Int63n(span/4)
			end := start + span/4 + rng.Int63n(span/2)
			interval := int64(60 * (1 + rng.Intn(40)))

			var numeric, all []refPoint
			var wantPoints, wantBytes int64
			for i, ts := range times {
				if ts < start || ts >= end {
					continue
				}
				wantPoints++
				wantBytes += 8 + int64(vals[i].EncodedSize())
				all = append(all, refPoint{t: ts})
				if f, ok := vals[i].AsFloat(); ok {
					numeric = append(numeric, refPoint{t: ts, v: f})
				}
			}

			for _, agg := range aggs {
				for _, iv := range []int64{0, interval} {
					stmt := fmt.Sprintf(`SELECT %s("f") FROM "m" WHERE time >= %d AND time < %d`, agg, start, end)
					if iv > 0 {
						stmt += fmt.Sprintf(` GROUP BY time(%ds)`, iv)
					}
					ctx := fmt.Sprintf("%s trial %d: %s", style, trial, stmt)
					base, err := reps["tail"].Query(stmt)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					for name, db := range reps {
						res, err := db.Query(stmt)
						if err != nil {
							t.Fatalf("%s [%s]: %v", ctx, name, err)
						}
						if !reflect.DeepEqual(res.Series, base.Series) {
							t.Fatalf("%s [%s] diverges from the raw tail\ngot:  %+v\nwant: %+v", ctx, name, res.Series, base.Series)
						}
						if res.Stats.PointsScanned != wantPoints || res.Stats.BytesScanned != wantBytes {
							t.Fatalf("%s [%s]: scanned %d points / %d bytes, want %d / %d", ctx, name,
								res.Stats.PointsScanned, res.Stats.BytesScanned, wantPoints, wantBytes)
						}
					}

					src := numeric
					switch agg {
					case "count":
						src = all
					case "sum", "mean", "max", "min":
					default:
						continue // outside the reference model
					}
					refIv := iv
					if refIv == 0 {
						refIv = 1 << 40 // one bucket over everything
					}
					want := refAggregate(src, 0, start, end, refIv, agg)
					got := map[int64]float64{}
					for _, s := range base.Series {
						for _, row := range s.Rows() {
							key := row.Time
							if iv == 0 {
								key = 0
							}
							got[key], _ = row.Values[0].AsFloat()
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d buckets, reference has %d", ctx, len(got), len(want))
					}
					for bt, wv := range want {
						if gv, ok := got[bt]; !ok || math.Float64bits(gv) != math.Float64bits(wv) {
							t.Fatalf("%s: bucket %d = %v, reference %v", ctx, bt, gv, wv)
						}
					}
				}
			}
		}
	}
}

// TestVecPromotionLeavesPinnedViewIntact runs under -race: a reader
// pinned on one view keeps scanning it while writes promote the typed
// tails underneath to mixed. Promotion must copy into fresh cells, so
// the pinned view's answers never change and no access races.
func TestVecPromotionLeavesPinnedViewIntact(t *testing.T) {
	const series, warm = 8, 100
	db := Open(Options{BlockSize: neverSeal})
	point := func(s int, ts int64, v Value) Point {
		return Point{Measurement: "m", Tags: Tags{{"id", fmt.Sprintf("s%d", s)}}, Fields: map[string]Value{"f": v}, Time: ts}
	}
	for s := 0; s < series; s++ {
		for i := 0; i < warm; i++ {
			if err := db.WritePoint(point(s, int64(i*60), Float(float64(s*warm+i)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	pinned := db.view.Load()
	var queries []*Query
	for _, stmt := range []string{
		`SELECT "f" FROM "m" GROUP BY "id"`,
		`SELECT sum("f"), last("f") FROM "m" GROUP BY time(10m), "id"`,
	} {
		q, err := Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	scan := func() []*Result {
		out := make([]*Result, len(queries))
		for i, q := range queries {
			res, err := db.execView(context.Background(), pinned, q)
			if err != nil {
				t.Error(err)
			}
			out[i] = res
		}
		return out
	}
	want := scan()

	started, stop, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		for first := true; ; first = false {
			got := scan()
			for i := range got {
				if !reflect.DeepEqual(got[i].Series, want[i].Series) {
					t.Errorf("pinned view changed under promotion: %s", queries[i])
					return
				}
			}
			if first {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	for i := 0; i < 160; i++ {
		for s := 0; s < series; s++ {
			v := Float(float64(i))
			switch {
			case i == s*10: // each series promotes at its own moment
				v = Str("Critical")
			case i%7 == 0:
				v = Int(int64(i))
			}
			if err := db.WritePoint(point(s, int64((warm+i)*60), v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	<-finished

	res, err := db.Query(`SELECT count("f") FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Series[0].Rows()[0].Values[0].I; n != series*(warm+160) {
		t.Fatalf("count after promotion = %d, want %d", n, series*(warm+160))
	}
}

// TestUnsealUnreadableColdBlockFailsWrite is the regression test for
// silent data loss in column.unseal: an out-of-order write landing
// behind a spilled block whose segment cannot be read back used to
// drop the block's points and re-seal without them. The write must
// fail instead, publish nothing, and lose nothing once the segment is
// back.
func TestUnsealUnreadableColdBlockFailsWrite(t *testing.T) {
	coldDir := t.TempDir()
	db := Open(Options{BlockSize: 32, ColdDir: coldDir})
	const n = 256
	var pts []Point
	for i := 0; i < n; i++ {
		pts = append(pts, coldPoint("n1", int64(i*60), float64(i)))
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	segs := coldSegments(t, coldDir)
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	path := filepath.Join(coldDir, segs[0])
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, intact[:len(intact)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	epoch := db.Epoch()
	if err := db.WritePoint(coldPoint("n1", 30, 1)); err == nil {
		t.Fatal("write behind an unreadable cold block succeeded")
	}
	if got := db.Epoch(); got != epoch {
		t.Fatalf("failed write published a view: epoch %d -> %d", epoch, got)
	}

	if err := os.WriteFile(path, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Rows()[0].Values[0].I; got != n {
		t.Fatalf("count after the failed write = %d, want %d: acknowledged points lost", got, n)
	}
	// With the segment readable the same write goes through.
	if err := db.WritePoint(coldPoint("n1", 30, 1)); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Rows()[0].Values[0].I; got != n+1 {
		t.Fatalf("count after the retried write = %d, want %d", got, n+1)
	}
}

// TestClearRangeUnreadableColdBlockFailsDelete is the regression test
// for the same loss in clearColumnRange: a range clear that cuts
// through sealed data rebuilds the column from its decoded blocks, and
// used to skip a spilled block whose segment could not be read back —
// re-sealing without its points. The delete must fail instead, publish
// nothing, and lose nothing once the segment is back.
func TestClearRangeUnreadableColdBlockFailsDelete(t *testing.T) {
	coldDir := t.TempDir()
	db := Open(Options{BlockSize: 32, ColdDir: coldDir})
	const n, cut = 256, 100
	var pts []Point
	for i := 0; i < n; i++ {
		pts = append(pts, coldPoint("n1", int64(i*60), float64(i)))
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	segs := coldSegments(t, coldDir)
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	path := filepath.Join(coldDir, segs[0])
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, intact[:len(intact)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	epoch := db.Epoch()
	if removed, err := db.DeleteMeasurementBefore("Power", cut*60); err == nil {
		t.Fatalf("range clear across an unreadable cold block succeeded (removed %d)", removed)
	}
	if got := db.Epoch(); got != epoch {
		t.Fatalf("failed delete published a view: epoch %d -> %d", epoch, got)
	}

	if err := os.WriteFile(path, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		t.Helper()
		res, err := db.Query(`SELECT count("Reading") FROM "Power"`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Series[0].Rows()[0].Values[0].I
	}
	if got := count(); got != n {
		t.Fatalf("count after the failed delete = %d, want %d: acknowledged points lost", got, n)
	}
	// With the segment readable the same delete goes through.
	removed, err := db.DeleteMeasurementBefore("Power", cut*60)
	if err != nil {
		t.Fatal(err)
	}
	if removed != cut || count() != n-cut {
		t.Fatalf("retried delete removed %d, left %d; want %d and %d", removed, count(), cut, n-cut)
	}
}

// TestResidentCorruptBlockFailsQuery: a resident block whose payload
// no longer decodes fails the query like an unreadable cold one,
// instead of being skipped for a short answer.
func TestResidentCorruptBlockFailsQuery(t *testing.T) {
	db := Open(Options{BlockSize: 32})
	var pts []Point
	for i := 0; i < 100; i++ {
		pts = append(pts, coldPoint("n1", int64(i*60), float64(i)))
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	for _, sh := range db.view.Load().shards {
		for _, sr := range sh.series {
			blk := sr.field("Reading").blocks[1]
			data := append([]byte(nil), blk.data...)
			data[1] ^= 0x40 // the value-encoding byte: no such encoding
			blk.data = data
		}
	}
	res, err := db.Query(`SELECT count("Reading") FROM "Power"`)
	if !errors.Is(err, errBlockCorrupt) {
		t.Fatalf("query over a corrupt resident block: res = %+v, err = %v; want errBlockCorrupt", res, err)
	}
}

// sameValue reports whether two values are identical, floats bit for
// bit (so a NaN matches only the same NaN, and −0 only −0).
func sameValue(a, b Value) bool {
	if a.Kind == KindFloat && b.Kind == KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

// sameResultBits reports the first difference between two results,
// comparing series, tags, times and values bit for bit.
func sameResultBits(a, b *Result) error {
	if len(a.Series) != len(b.Series) {
		return fmt.Errorf("%d series vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		as, bs := &a.Series[i], &b.Series[i]
		if seriesKey("", as.Tags) != seriesKey("", bs.Tags) {
			return fmt.Errorf("series %d: tags %v vs %v", i, as.Tags, bs.Tags)
		}
		ar, br := as.Rows(), bs.Rows()
		if len(ar) != len(br) {
			return fmt.Errorf("series %d: %d rows vs %d", i, len(ar), len(br))
		}
		for j := range ar {
			if ar[j].Time != br[j].Time || !reflect.DeepEqual(ar[j].Present, br[j].Present) {
				return fmt.Errorf("series %d row %d: %+v vs %+v", i, j, ar[j], br[j])
			}
			for f := range ar[j].Values {
				if !sameValue(ar[j].Values[f], br[j].Values[f]) {
					return fmt.Errorf("series %d row %d field %d: %v vs %v", i, j, f, ar[j].Values[f], br[j].Values[f])
				}
			}
		}
	}
	return nil
}

// TestBlockFloat32Exactness pins which floats the cache may keep as
// float32s: exactly those that come back bit for bit, one value at a
// time and all-or-nothing for a vector.
func TestBlockFloat32Exactness(t *testing.T) {
	for _, c := range []struct {
		name  string
		x     float64
		exact bool
	}{
		{"whole", 42, true},
		{"half", -7.5, true},
		{"2^24", 1 << 24, true},
		{"2^24+1", 1<<24 + 1, false},
		{"0.1", 0.1, false},
		{"12.09 V", 12.09, false},
		{"+0", 0, true},
		{"-0", math.Copysign(0, -1), true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
		{"max float32", math.MaxFloat32, true},
		{"past float32", 1e39, false},
		{"quiet NaN, empty payload", math.Float64frombits(0x7ff8000000000000), true},
		{"NaN, low payload bit", math.NaN(), false},
		{"float32 subnormal", math.SmallestNonzeroFloat32, true},
		{"float64 subnormal", math.SmallestNonzeroFloat64, false},
	} {
		v := compactFloats(valueVec{kind: vecFloat, f: []float64{c.x}}, true)
		if (v.kind == vecFloat32) != c.exact {
			t.Errorf("%s: kind %d, want float32 %t", c.name, v.kind, c.exact)
		}
		if got := v.at(0); got.Kind != KindFloat || math.Float64bits(got.F) != math.Float64bits(c.x) {
			t.Errorf("%s: reads back %v (%#x), want %#x", c.name, got, math.Float64bits(got.F), math.Float64bits(c.x))
		}
		if h := v.heapBytes(); (h == 4) != c.exact || (h == 8) == c.exact {
			t.Errorf("%s: charged %d B", c.name, h)
		}
		mixed := compactFloats(valueVec{kind: vecFloat, f: []float64{1, c.x, 2}}, true)
		if (mixed.kind == vecFloat32) != c.exact {
			t.Errorf("%s among exact values: kind %d, want float32 %t", c.name, mixed.kind, c.exact)
		}
	}
	// The float32 form never leaks into what is built from it.
	v := compactFloats(valueVec{kind: vecFloat, f: []float64{1, 2, 3}}, true)
	var app valueVec
	app.appendVec(v)
	built := []valueVec{makeVec(v.kind, 1), app, v.pick([]int{2, -1}), v.narrowed()}
	w := v
	w.append(Float(4))
	built = append(built, w)
	for i, b := range built {
		if b.kind != vecFloat || b.f32 != nil {
			t.Errorf("vector %d built from the float32 form has kind %d", i, b.kind)
		}
	}
}

// TestBlockFloat32CacheMatchesPlainDecode: every aggregate and the raw
// scan answer bit for bit the same whether sealed blocks are read from
// the decode cache, which keeps a block whose floats are all
// float32-exact as float32s, or decoded afresh with no cache. Blocks
// mix exact values with inexact ones (0.1, 2^24+1), NaNs, ±0, ±Inf and
// subnormals, at regular and drifting times.
func TestBlockFloat32CacheMatchesPlainDecode(t *testing.T) {
	exact := []float64{0, math.Copysign(0, -1), 1, -7.5, 1 << 24, 1e30, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000000), math.SmallestNonzeroFloat32, math.MaxFloat32}
	inexact := []float64{0.1, 1<<24 + 1, math.NaN(), math.SmallestNonzeroFloat64, 12.09}
	aggs := []string{"count", "sum", "mean", "min", "max", "spread", "first", "last", "median", "stddev"}
	const bs, perNode = 16, 200
	forms := map[vecKind]int{}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var pts []Point
		for n := 0; n < 3; n++ {
			jitter := rng.Intn(2) == 0
			blockExact := true
			for i := 0; i < perNode; i++ {
				if i%bs == 0 {
					blockExact = rng.Intn(2) == 0
				}
				x := float64(float32(rng.NormFloat64() * 100))
				switch r := rng.Intn(8); {
				case r == 0:
					x = exact[rng.Intn(len(exact))]
				case r == 1 && !blockExact:
					x = inexact[rng.Intn(len(inexact))]
				}
				ts := int64(60 * i)
				if jitter {
					ts += int64(rng.Intn(30))
				}
				pts = append(pts, Point{Measurement: "Power", Tags: Tags{{"NodeId", fmt.Sprintf("n%d", n)}},
					Fields: map[string]Value{"Reading": Float(x)}, Time: ts})
			}
		}
		on, off := Open(Options{BlockSize: bs}), Open(Options{BlockSize: bs})
		off.cache = nil
		for _, db := range []*DB{on, off} {
			if err := db.WritePoints(pts); err != nil {
				t.Fatal(err)
			}
		}
		var stmts []string
		for _, agg := range aggs {
			stmts = append(stmts,
				fmt.Sprintf(`SELECT %s("Reading") FROM "Power" GROUP BY "NodeId"`, agg),
				fmt.Sprintf(`SELECT %s("Reading") FROM "Power" WHERE time >= 300 AND time < 11000 GROUP BY time(7m), "NodeId"`, agg))
		}
		stmts = append(stmts, `SELECT "Reading" FROM "Power" WHERE time >= 300 AND time < 11000 GROUP BY "NodeId"`)
		for _, stmt := range stmts {
			want, err := off.Query(stmt)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"decoding", "cached"} {
				got, err := on.Query(stmt)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResultBits(got, want); err != nil {
					t.Fatalf("trial %d, %s, %s: cache on vs off: %v", trial, stmt, pass, err)
				}
			}
		}
		// The form is all-or-nothing per block: float32 exactly when
		// every value of the block comes back bit for bit.
		for _, sh := range on.view.Load().shards {
			for _, sr := range sh.series {
				for _, blk := range sr.field("Reading").blocks {
					p := blk.cache.Load()
					if p == nil {
						t.Fatalf("trial %d: block [%d, %d] not cached", trial, blk.minT, blk.maxT)
					}
					_, plain, err := decodeBlockData(blk.data, new(decodeBuf))
					if err != nil {
						t.Fatal(err)
					}
					allExact := true
					for _, x := range plain.f {
						allExact = allExact && math.Float64bits(float64(float32(x))) == math.Float64bits(x)
					}
					if (p.vals.kind == vecFloat32) != allExact {
						t.Fatalf("trial %d: block [%d, %d] cached as kind %d, all float32-exact %t",
							trial, blk.minT, blk.maxT, p.vals.kind, allExact)
					}
					forms[p.vals.kind]++
				}
			}
		}
	}
	if forms[vecFloat32] == 0 || forms[vecFloat] == 0 {
		t.Fatalf("cached forms %v: the trials must produce both", forms)
	}
}
