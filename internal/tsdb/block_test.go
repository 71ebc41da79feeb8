package tsdb

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// genColumn fabricates one sorted column of n samples in the given
// style; the styles cover every value encoding plus the ugly shapes
// (duplicate timestamps, negative times, NaN/Inf floats).
func genColumn(rng *rand.Rand, style string, n int) ([]int64, []Value) {
	times := make([]int64, n)
	vals := make([]Value, n)
	t := int64(-120)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // duplicate timestamp
		default:
			t += int64(rng.Intn(600))
		}
		times[i] = t
		switch style {
		case "float-smooth":
			vals[i] = Float(200 + math.Sin(float64(i)/10)*50)
		case "float-random":
			f := rng.NormFloat64() * 1e6
			switch rng.Intn(20) {
			case 0:
				f = math.Inf(1)
			case 1:
				f = math.NaN()
			}
			vals[i] = Float(f)
		case "int":
			vals[i] = Int(rng.Int63n(1000) - 500)
		case "mixed":
			switch rng.Intn(4) {
			case 0:
				vals[i] = Float(rng.Float64())
			case 1:
				vals[i] = Int(rng.Int63())
			case 2:
				vals[i] = Str(fmt.Sprintf("s%d", rng.Intn(10)))
			default:
				vals[i] = Bool(rng.Intn(2) == 0)
			}
		}
	}
	return times, vals
}

func valuesEqual(t *testing.T, want, got []Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: want %d got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Kind == KindFloat && g.Kind == KindFloat {
			if math.Float64bits(w.F) != math.Float64bits(g.F) {
				t.Fatalf("value %d: want %x got %x", i, math.Float64bits(w.F), math.Float64bits(g.F))
			}
			continue
		}
		if w != g {
			t.Fatalf("value %d: want %+v got %+v", i, w, g)
		}
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, style := range []string{"float-smooth", "float-random", "int", "mixed"} {
		for trial := 0; trial < 25; trial++ {
			n := 1 + rng.Intn(300)
			times, vals := genColumn(rng, style, n)
			blk := sealBlock(timeVec{t: times}, vecOf(vals))
			if blk.minT != times[0] || blk.maxT != times[n-1] || blk.count != n {
				t.Fatalf("%s: bad header %+v for %d points [%d,%d]", style, blk, n, times[0], times[n-1])
			}
			if _, err := blk.validate(); err != nil {
				t.Fatalf("%s: validate: %v", style, err)
			}
			p, _, err := blk.decode(nil)
			if err != nil {
				t.Fatalf("%s: decode: %v", style, err)
			}
			for i := range times {
				if p.times.at(i) != times[i] {
					t.Fatalf("%s trial %d: time %d: want %d got %d", style, trial, i, times[i], p.times.at(i))
				}
			}
			valuesEqual(t, vals, p.vals.values())
		}
	}
}

func TestBlockDecodeRejectsCorrupt(t *testing.T) {
	times, vals := genColumn(rand.New(rand.NewSource(7)), "float-smooth", 64)
	blk := sealBlock(timeVec{t: times}, vecOf(vals))
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(blk.data); cut++ {
		if _, _, err := decodeBlockData(blk.data[:cut], new(decodeBuf)); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage is rejected too.
	if _, _, err := decodeBlockData(append(append([]byte(nil), blk.data...), 0xff), new(decodeBuf)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A count the payload cannot back must be rejected before any
	// allocation happens.
	huge := []byte{0xff, 0xff, 0xff, 0x7f, vencFloat}
	if _, _, err := decodeBlockData(huge, new(decodeBuf)); err == nil {
		t.Fatal("oversized count accepted")
	}
}

// TestSealThresholdAndTail drives the write path with a small block
// size and checks the column splits into sealed blocks plus a raw tail
// at the advertised threshold.
func TestSealThresholdAndTail(t *testing.T) {
	db := Open(Options{ShardDuration: 86400, BlockSize: 4})
	for i := 0; i < 10; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cs := db.Compression()
	if cs.Blocks != 2 || cs.SealedPoints != 8 || cs.TailPoints != 2 {
		t.Fatalf("want 2 blocks / 8 sealed / 2 tail, got %+v", cs)
	}
	if cs.BlocksSealed != 2 {
		t.Fatalf("BlocksSealed counter = %d, want 2", cs.BlocksSealed)
	}
	if got := db.Stats().BlocksSealed; got != 2 {
		t.Fatalf("DBStats.BlocksSealed = %d, want 2", got)
	}
	// One bulk batch seals everything it can in one finish.
	db2 := Open(Options{ShardDuration: 86400, BlockSize: 4})
	var pts []Point
	for i := 0; i < 11; i++ {
		pts = append(pts, walPoint("n1", int64(60*i), float64(i)))
	}
	if err := db2.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if cs := db2.Compression(); cs.Blocks != 2 || cs.TailPoints != 3 {
		t.Fatalf("bulk write: want 2 blocks / 3 tail, got %+v", cs)
	}
	// A threshold the column never reaches keeps everything raw.
	db3 := Open(Options{ShardDuration: 86400, BlockSize: neverSeal})
	if err := db3.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if cs := db3.Compression(); cs.Blocks != 0 || cs.TailPoints != 11 {
		t.Fatalf("unreached threshold: got %+v", cs)
	}
}

// TestSealTailSizedToData: the tail a seal leaves behind holds only
// its own points. A day of minutely samples seals one 1,024-point block
// and keeps 416 raw, their times as the regular prefix alone; arrays
// with room for a whole block would pin 608 dead slots per column
// until the next seal.
func TestSealTailSizedToData(t *testing.T) {
	db := Open(Options{BlockSize: 1024})
	pts := make([]Point, 1440)
	for i := range pts {
		pts[i] = walPoint("n1", int64(60*i), float64(i%97))
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	for _, sh := range db.view.Load().shards {
		for _, sr := range sh.series {
			col := sr.field("Reading")
			if len(col.blocks) != 1 || col.times.len() != 416 || col.vals.len() != 416 {
				t.Fatalf("want 1 block and a 416-point tail, got %d blocks and %d points", len(col.blocks), col.times.len())
			}
			if col.times.n != 416 || cap(col.times.t) != 0 || cap(col.vals.f) != 416 {
				t.Fatalf("tail: %d regular times, suffix capacity %d, value capacity %d; want 416, 0, 416", col.times.n, cap(col.times.t), cap(col.vals.f))
			}
		}
	}
}

// neverSeal is a seal threshold above any test's column length: every
// sample stays in its raw tail — the all-raw reference the sealed
// representations are compared against.
const neverSeal = 1 << 20

// queryAll formats every Power sample — the equivalence oracle used by
// the sealed-vs-raw tests.
func queryAll(t *testing.T, db *DB, stmt string) string {
	t.Helper()
	res, err := db.Query(stmt)
	if err != nil {
		t.Fatalf("query %q: %v", stmt, err)
	}
	return FormatResult(res)
}

// TestSealedQueryEquivalence checks that every query shape (raw
// selects, whole-range aggregates, bucketed aggregates) returns
// bit-identical results whether data is sealed or raw.
func TestSealedQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sealed := Open(Options{ShardDuration: 3600, BlockSize: 8})
	raw := Open(Options{ShardDuration: 3600, BlockSize: neverSeal})
	for i := 0; i < 500; i++ {
		p := walPoint(fmt.Sprintf("n%d", rng.Intn(3)), int64(i*30), float64(rng.Intn(100)))
		for _, db := range []*DB{sealed, raw} {
			if err := db.WritePoint(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	stmts := []string{
		"SELECT Reading FROM Power WHERE time >= '1970-01-01T00:10:00Z' AND time < '1970-01-01T03:00:00Z'",
		"SELECT max(Reading) FROM Power GROUP BY \"NodeId\"",
		"SELECT mean(Reading) FROM Power WHERE time >= '1970-01-01T00:00:00Z' AND time < '1970-01-01T04:00:00Z' GROUP BY time(5m), \"NodeId\"",
		"SELECT count(Reading), min(Reading), spread(Reading) FROM Power GROUP BY time(10m)",
	}
	for _, stmt := range stmts {
		if got, want := queryAll(t, sealed, stmt), queryAll(t, raw, stmt); got != want {
			t.Fatalf("sealed and raw disagree on %q:\nsealed:\n%s\nraw:\n%s", stmt, got, want)
		}
	}
}

// TestBlockHeaderPruning verifies scans decode only overlapping blocks:
// out-of-range queries are pure header skips.
func TestBlockHeaderPruning(t *testing.T) {
	db := Open(Options{ShardDuration: 86400, BlockSize: 10})
	for i := 0; i < 100; i++ { // 10 sealed blocks, empty tail
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	q, err := Parse("SELECT max(Reading) FROM Power WHERE time >= '1970-01-01T02:00:00Z' AND time < '1970-01-01T10:00:00Z'")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksDecoded != 0 || res.Stats.BlocksSkipped != 10 {
		t.Fatalf("out-of-range scan: decoded %d skipped %d, want 0/10", res.Stats.BlocksDecoded, res.Stats.BlocksSkipped)
	}
	if len(res.Series) != 0 {
		t.Fatalf("out-of-range scan returned rows: %v", res.Series)
	}
	// A window over blocks 2..3 decodes exactly those two.
	q, err = Parse("SELECT max(Reading) FROM Power WHERE time >= '1970-01-01T00:21:00Z' AND time < '1970-01-01T00:35:00Z'")
	if err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksDecoded != 2 || res.Stats.BlocksSkipped != 8 {
		t.Fatalf("window scan: decoded %d skipped %d, want 2/8", res.Stats.BlocksDecoded, res.Stats.BlocksSkipped)
	}
	if v := res.Series[0].Rows()[0].Values[0]; v.F != 34 {
		t.Fatalf("window max = %v, want 34", v)
	}
}

// TestOutOfOrderAcrossSealBoundary lands writes behind already-sealed
// data and checks the unseal/re-sort path keeps results identical to
// an uncompressed engine.
func TestOutOfOrderAcrossSealBoundary(t *testing.T) {
	sealed := Open(Options{ShardDuration: 86400, BlockSize: 4})
	raw := Open(Options{ShardDuration: 86400, BlockSize: neverSeal})
	ts := []int64{0, 60, 120, 180, 240, 300, 90, 30, 360, 15, 420, 480, 540, 600, 45}
	for i, at := range ts {
		p := walPoint("n1", at, float64(i))
		for _, db := range []*DB{sealed, raw} {
			if err := db.WritePoint(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	stmt := "SELECT Reading FROM Power"
	if got, want := queryAll(t, sealed, stmt), queryAll(t, raw, stmt); got != want {
		t.Fatalf("out-of-order: sealed and raw disagree:\nsealed:\n%s\nraw:\n%s", got, want)
	}
	if cs := sealed.Compression(); cs.SealedPoints+cs.TailPoints != int64(len(ts)) {
		t.Fatalf("lost points: %+v, want %d total", cs, len(ts))
	}
}

// TestBlockBytesPerPoint asserts the acceptance target: the monotonic
// one-minute HPC workload (bench_test.go's shape) seals at <= 3
// bytes/point, versus ~25 B/point raw.
func TestBlockBytesPerPoint(t *testing.T) {
	db := Open(Options{ShardDuration: 86400 * 7, BlockSize: DefaultBlockSize})
	const n = 8192
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, walPoint("n1", int64(60*i), float64(200+i%50)))
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	cs := db.Compression()
	if cs.SealedPoints != n { // 8192 = 8 full default blocks
		t.Fatalf("sealed %d of %d points (%d blocks)", cs.SealedPoints, n, cs.Blocks)
	}
	rawPer := float64(cs.BytesRaw) / float64(cs.SealedPoints)
	perPoint := float64(cs.BytesCompressed) / float64(cs.SealedPoints)
	t.Logf("raw %.2f B/point, sealed %.3f B/point, ratio %.1fx", rawPer, perPoint, cs.Ratio())
	if perPoint > 3 {
		t.Fatalf("sealed encoding costs %.3f B/point, want <= 3", perPoint)
	}
	if cs.Ratio() < 5 {
		t.Fatalf("compression ratio %.2f, want >= 5", cs.Ratio())
	}
}

// TestColumnIteratorWalksBlocksThenTail exercises the iterator
// directly: chunks must arrive in time order, blocks before tail, with
// range clipping inside partially-overlapping blocks.
func TestColumnIteratorWalksBlocksThenTail(t *testing.T) {
	col := &column{}
	for b := 0; b < 3; b++ {
		var times []int64
		var vals []Value
		for i := 0; i < 4; i++ {
			times = append(times, int64(b*40+i*10))
			vals = append(vals, Float(float64(b*4+i)))
		}
		col.blocks = append(col.blocks, sealBlock(timeVec{t: times}, vecOf(vals)))
	}
	col.times = compactTimes([]int64{120, 130})
	col.vals = vecOf([]Value{Float(12), Float(13)})

	var st execState
	it := newColumnIterator(col, 15, 125)
	var got []int64
	for {
		ch, ok := it.next(&st)
		if !ok {
			break
		}
		got = ch.times.appendTo(got)
	}
	want := []int64{20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iterator yielded %v, want %v", got, want)
	}
	if st.stats.BlocksDecoded != 3 || st.stats.BlocksSkipped != 0 {
		t.Fatalf("stats %+v", st.stats)
	}
}

// TestSnapshotRoundTripSealedBlocks snapshots a database holding
// sealed blocks, raw tails, and every value kind, then restores it and
// compares queries, accounting, and compression state.
func TestSnapshotRoundTripSealedBlocks(t *testing.T) {
	db := Open(Options{ShardDuration: 3600, BlockSize: 8})
	for i := 0; i < 100; i++ {
		if err := db.WritePoint(walPoint(fmt.Sprintf("n%d", i%2), int64(i*120), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WritePoint(Point{
		Measurement: "Meta",
		Tags:        Tags{{Key: "NodeId", Value: "n1"}},
		Fields:      map[string]Value{"state": Str("ok"), "up": Bool(true), "jobs": Int(3)},
		Time:        500,
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := RestoreOptions(&buf, Options{BlockSize: 8})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, stmt := range []string{
		"SELECT Reading FROM Power",
		"SELECT mean(Reading) FROM Power GROUP BY time(10m), \"NodeId\"",
		"SELECT state, up, jobs FROM Meta",
		"SHOW FIELD KEYS",
		"SHOW SERIES",
	} {
		if got, want := queryAll(t, db2, stmt), queryAll(t, db, stmt); got != want {
			t.Fatalf("restored DB disagrees on %q:\ngot:\n%s\nwant:\n%s", stmt, got, want)
		}
	}
	if got, want := db2.Disk(), db.Disk(); got != want {
		t.Fatalf("disk accounting changed: got %+v want %+v", got, want)
	}
	if got, want := db2.Stats(), db.Stats(); got != want {
		t.Fatalf("stats changed: got %+v want %+v", got, want)
	}
	cg, cw := db2.Compression(), db.Compression()
	cg.BlocksCached, cw.BlocksCached = 0, 0 // query-dependent, not stored
	if cg != cw {
		t.Fatalf("compression state changed: got %+v want %+v", cg, cw)
	}
	if db2.Epoch() != db.Epoch() {
		t.Fatalf("epoch changed: %d vs %d", db2.Epoch(), db.Epoch())
	}
}

// endlessFF serves an unbounded stream of 0xFF after head: read as a
// snapshot body, every count field would claim four billion entries.
type endlessFF struct {
	head []byte
	read int
}

func (r *endlessFF) Read(p []byte) (int, error) {
	n := copy(p, r.head)
	r.head = r.head[n:]
	for i := n; i < len(p); i++ {
		p[i] = 0xFF
	}
	r.read += len(p)
	return len(p), nil
}

// TestRestoreRejectsRetiredVersions checks the reader's version gate:
// a version 1, 2 or 3 header, or one from a future build (6), fails
// with an error naming the version, before anything of the body is
// parsed or sized from.
func TestRestoreRejectsRetiredVersions(t *testing.T) {
	for _, ver := range []uint16{1, 2, 3, 6} {
		// Every version follows its header with the shard duration.
		hdr := le.AppendUint64(appendFileHeader(nil, snapshotMagic, ver), 3600)
		src := &endlessFF{head: hdr}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := RestoreOptions(src, Options{})
		runtime.ReadMemStats(&after)
		if err == nil || db != nil {
			t.Fatalf("version %d snapshot restored (db %v)", ver, db)
		}
		if want := fmt.Sprintf("version %d", ver); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
		if src.read > 4096 {
			t.Fatalf("version %d: read %d bytes of the body", ver, src.read)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("version %d: rejecting allocated %d bytes", ver, grew)
		}
	}
}

// failingWriter errors once n bytes have been accepted.
type failingWriter struct {
	n    int
	seen int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.seen+len(p) > w.n {
		ok := w.n - w.seen
		w.seen = w.n
		return ok, fmt.Errorf("synthetic write failure after %d bytes", w.n)
	}
	w.seen += len(p)
	return len(p), nil
}

// TestSnapshotFailingWriter proves the first sink error surfaces: a
// sink that fails at any byte offset must make Snapshot return an
// error — no silently truncated "successful" snapshots.
func TestSnapshotFailingWriter(t *testing.T) {
	db := Open(Options{ShardDuration: 3600, BlockSize: 8})
	for i := 0; i < 40; i++ {
		if err := db.WritePoint(walPoint("n1", int64(i*60), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var full bytes.Buffer
	if err := db.Snapshot(&full); err != nil {
		t.Fatal(err)
	}
	if full.Len() == 0 {
		t.Fatal("empty snapshot")
	}
	for _, cut := range []int{0, 1, 4, 7, full.Len() / 2, full.Len() - 1} {
		if err := db.Snapshot(&failingWriter{n: cut}); err == nil {
			t.Fatalf("snapshot to writer failing at byte %d reported success", cut)
		}
	}
}

// TestOpenClampsBlockSize checks that a seal threshold above the
// largest block a reader accepts is clamped to it, so no sealed block
// and no checkpointed tail is ever unreadable. Filling a 1<<24-point
// block is too large for a unit test; the threshold is checked where
// the write batch takes it from.
func TestOpenClampsBlockSize(t *testing.T) {
	for _, c := range []struct{ opt, want int }{
		{0, DefaultBlockSize},
		{-1, DefaultBlockSize},
		{maxBlockPoints, maxBlockPoints},
		{maxBlockPoints + 1, maxBlockPoints},
		{math.MaxInt, maxBlockPoints},
	} {
		if got := Open(Options{BlockSize: c.opt}).blockSize; got != c.want {
			t.Errorf("BlockSize %d seals at %d, want %d", c.opt, got, c.want)
		}
	}
}

// TestRangeIndexesSuffixSearch pins the rangeIndexes micro-fix: the
// upper bound must match the naive full-column search on every window,
// over a tail whose regular prefix gives way to duplicate times.
func TestRangeIndexesSuffixSearch(t *testing.T) {
	c := &column{}
	var times []int64
	for i := 0; i < 200; i++ {
		ts := int64(5 * i) // a regular prefix, then runs of duplicates
		if i >= 60 {
			ts = int64(300 + (i-60)/3*10)
		}
		c.vals.append(Float(0))
		c.times.append(ts, c.vals.cap())
		times = append(times, ts)
	}
	naive := func(start, end int64) (int, int) {
		lo, hi := 0, 0
		for _, ts := range times {
			if ts < start {
				lo++
			}
			if ts < end {
				hi++
			} else {
				break
			}
		}
		return lo, hi
	}
	if c.times.n != 61 {
		t.Fatalf("regular prefix of %d times, want 61", c.times.n)
	}
	for start := int64(-10); start < 800; start += 7 {
		for _, span := range []int64{0, 5, 10, 33, 1000} {
			end := start + span
			glo, ghi := c.rangeIndexes(start, end)
			wlo, whi := naive(start, end)
			if glo != wlo || ghi != whi {
				t.Fatalf("rangeIndexes(%d,%d) = (%d,%d), want (%d,%d)", start, end, glo, ghi, wlo, whi)
			}
		}
	}
}
