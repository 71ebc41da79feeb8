package tsdb

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tierSig renders the full materialized state of the Power_mean_300s
// tier (mean plus its sum/count side fields) as one comparable string,
// and fails the test if any field's rows are not strictly increasing in
// time — a duplicate bucket means a rollup op was applied twice.
func tierSig(t *testing.T, db *DB, ctx string) string {
	t.Helper()
	var sb strings.Builder
	for _, field := range []string{"Reading", "Reading_sum", "Reading_count"} {
		res, err := db.Query(fmt.Sprintf(`SELECT %q FROM "Power_mean_300s"`, field))
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for _, s := range res.Series {
			last := int64(-1 << 62)
			for _, r := range s.Rows() {
				if r.Time <= last {
					t.Fatalf("%s: duplicate/unordered %s bucket at t=%d", ctx, field, r.Time)
				}
				last = r.Time
				fmt.Fprintf(&sb, "%s|%d|%v;", field, r.Time, r.Values[0])
			}
		}
	}
	return sb.String()
}

// TestWALRollupKillPoints is the kill-point matrix for incremental
// rollup maintenance: with a mean tier registered, every write batch
// that closes a bucket logs one composite WAL record (raw points + the
// tier ops they triggered). Truncating the log at every byte offset
// and recovering must yield (a) exactly the longest valid prefix of
// raw batches, (b) a tier with no double-applied buckets, and (c)
// after re-registering the rollup and one closing write, the exact
// state an uninterrupted run over that raw prefix and the same closing
// write produces.
func TestWALRollupKillPoints(t *testing.T) {
	spec := RollupSpec{Source: "Power", Field: "Reading", Aggregate: "mean", Interval: 300}
	const batches = 12
	// closeAt is the closing write's time: past every batch, so its
	// maintenance closes every bucket the batches wrote into.
	const closeAt = 3600

	master := t.TempDir()
	db, _ := crashOpen(t, master, WALOptions{Policy: FsyncNever})
	if err := db.RegisterRollup(spec); err != nil {
		t.Fatal(err)
	}
	// One point per batch: crossing a 300s bucket boundary makes that
	// batch's WAL record composite (raw + rollup ops).
	var rawBoundaries []int64
	for i := 0; i < batches; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
		db.wal.mu.Lock()
		rawBoundaries = append(rawBoundaries, db.wal.seg.size)
		db.wal.mu.Unlock()
	}
	data, err := os.ReadFile(walSegmentPath(master, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Reference states: for each raw prefix length, the tier an
	// uninterrupted (never-crashed) run converges to.
	refSig := make([]string, batches+1)
	refRaw := make([]int64, batches+1)
	for k := 0; k <= batches; k++ {
		ref := Open(Options{ShardDuration: 3600})
		if err := ref.RegisterRollup(spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := ref.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.WritePoint(walPoint("n1", closeAt, 0)); err != nil {
			t.Fatal(err)
		}
		refSig[k] = tierSig(t, ref, fmt.Sprintf("reference k=%d", k))
		refRaw[k] = ref.Disk().Points - tierPoints(t, ref)
	}

	for off := int64(0); off <= int64(len(data)); off++ {
		prefix := 0
		for _, b := range rawBoundaries {
			if b <= off {
				prefix++
			}
		}
		ctx := fmt.Sprintf("offset %d (prefix %d)", off, prefix)
		dir := t.TempDir()
		if err := os.WriteFile(walSegmentPath(dir, 1), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// Recovery replays composite records verbatim — the rollup is
		// not registered yet, so maintenance cannot re-run and re-apply.
		rec, _, err := OpenDurable(Options{ShardDuration: 3600}, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("%s: OpenDurable: %v", ctx, err)
		}
		if got := rec.Disk().Points - tierPoints(t, rec); got != int64(prefix) {
			t.Fatalf("%s: recovered %d raw points, want %d", ctx, got, prefix)
		}
		tierSig(t, rec, ctx) // duplicate-bucket check on the bare replayed state
		// Re-register and write the closing point: watermark inference
		// must pick up from the replayed tier rows and converge on the
		// reference state.
		if err := rec.RegisterRollup(spec); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if err := rec.WritePoint(walPoint("n1", closeAt, 0)); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if got := tierSig(t, rec, ctx); got != refSig[prefix] {
			t.Fatalf("%s: tier diverged from uninterrupted run:\n got %s\nwant %s", ctx, got, refSig[prefix])
		}
		if got := rec.Disk().Points - tierPoints(t, rec); got != refRaw[prefix] {
			t.Fatalf("%s: raw points %d after the closing write, want %d", ctx, got, refRaw[prefix])
		}
	}
}

// tierPoints counts the points materialized in the mean tier (every
// bucket row carries mean + sum + count fields at one timestamp, and
// Disk().Points counts field samples per measurement write).
func tierPoints(t *testing.T, db *DB) int64 {
	t.Helper()
	return measurementPoints(db.view.Load(), "Power_mean_300s")
}

// TestWALRollupPlainWriteFormat pins the plain-record contract: a
// write that triggers no rollup ops must log the plain write record,
// byte-identical to what a DB with no registered rollups writes.
func TestWALRollupPlainWriteFormat(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	dbA, _ := crashOpen(t, dirA, WALOptions{Policy: FsyncNever})
	dbB, _ := crashOpen(t, dirB, WALOptions{Policy: FsyncNever})
	// B has a rollup registered but the batch closes no bucket, so no
	// ops are emitted and the record must stay in the plain format.
	if err := dbB.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{dbA, dbB} {
		if err := db.WritePoint(walPoint("n1", 60, 42)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(walSegmentPath(dirA, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(walSegmentPath(dirB, 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("op-free write changed the WAL record format:\n a=%x\n b=%x", a, b)
	}
}

// TestTierStatsLiveEqualRecovered: a tier's watermark is read off its
// rows, so a durable DB whose source skipped buckets reports the same
// TierStats live as a process that recovers its directory and
// registers the tier again — and both advance alike from there.
func TestTierStatsLiveEqualRecovered(t *testing.T) {
	spec := RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}
	dir := t.TempDir()
	live, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if err := live.RegisterRollup(spec); err != nil {
		t.Fatal(err)
	}
	// Points at 0-240 s fill bucket 0; the next, at 1500 s, closes it
	// and the four empty buckets after it.
	for ts := int64(0); ts <= 240; ts += 60 {
		if err := live.WritePoint(walPoint("n1", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.WritePoint(walPoint("n1", 1500, 1)); err != nil {
		t.Fatal(err)
	}
	recovered, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if err := recovered.RegisterRollup(spec); err != nil {
		t.Fatal(err)
	}
	compare := func(when string, want TierStats) {
		t.Helper()
		l, r := live.TierStats(), recovered.TierStats()
		if !reflect.DeepEqual(l, r) {
			t.Fatalf("%s: live %+v, recovered %+v", when, l, r)
		}
		if l[0].Points != want.Points || l[0].Watermark != want.Watermark {
			t.Fatalf("%s: %+v, want %d points to watermark %d", when, l[0], want.Points, want.Watermark)
		}
	}
	compare("after the gap", TierStats{Points: 1, Watermark: 300})
	for _, db := range []*DB{live, recovered} {
		if err := db.WritePoint(walPoint("n1", 1800, 2)); err != nil {
			t.Fatal(err)
		}
	}
	compare("after one more write", TierStats{Points: 2, Watermark: 1800})
}

// TestWALReplaysPointsFreeBatchRecord: logs from earlier builds hold
// batch records with tier ops and no raw points, written by an
// explicit catch-up that closed buckets by clock. Replay applies the
// ops alone, with no empty raw batch beside them, to the tier rows and
// counts the logging DB had.
func TestWALReplaysPointsFreeBatchRecord(t *testing.T) {
	raw := &walRecord{op: walOpWrite, points: []Point{walPoint("n1", 0, 5), walPoint("n1", 60, 7), walPoint("n1", 300, 3)}}
	row := func(ts int64, v float64) Point {
		p := walPoint("n1", ts, v)
		p.Measurement = "Power_max_300s"
		return p
	}
	catchUp := &walRecord{op: walOpBatch, ops: []rollupOp{{
		target: "Power_max_300s",
		points: []Point{row(0, 7), row(300, 3)},
	}}}
	dir := t.TempDir()
	if err := os.WriteFile(walSegmentPath(dir, 1), walSeedSegment(raw, catchUp), 0o644); err != nil {
		t.Fatal(err)
	}
	db, info, err := OpenDurable(Options{}, WALOptions{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if info.Records != 2 || info.Points != 3 || info.TornFrames != 0 {
		t.Fatalf("recovery = %+v, want both records and the 3 raw points", info)
	}
	// The logging DB wrote two batches: the raw one and the tier rows.
	if st := db.Stats(); st.BatchesWritten != 2 || st.PointsWritten != 5 {
		t.Fatalf("replay counted %d batches and %d points, want 2 and 5", st.BatchesWritten, st.PointsWritten)
	}
	res, err := db.Query(`SELECT "Reading" FROM "Power_max_300s"`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Series[0].Rows() {
		got = append(got, fmt.Sprintf("%d=%v", r.Time, r.Values[0].F))
	}
	if fmt.Sprint(got) != "[0=7 300=3]" {
		t.Fatalf("tier rows %v, want [0=7 300=3]", got)
	}
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	if ts := db.TierStats()[0]; ts.Points != 2 || ts.Watermark != 600 {
		t.Fatalf("tier after replay: %+v, want 2 points to watermark 600", ts)
	}
}

// TestWALLineBreakSeriesRecover: a series whose tag holds a line break,
// as builds before WritePoints refused one stored it, survives a
// checkpoint and a logged write, and so do the rollup rows maintenance
// derives from it. Recovery replays every record after them: a line
// break in a name is not corruption.
func TestWALLineBreakSeriesRecover(t *testing.T) {
	dir := t.TempDir()
	legacyWrite := func(db *DB, p Point) {
		t.Helper()
		pts := []Point{p}
		if err := db.commit(func(v *dbView) (*dbView, *walRecord, error) {
			nv, written, err := db.writePointsView(v, pts)
			return nv, &walRecord{op: walOpWrite, points: pts, series: written}, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	legacyWrite(db, walPoint("n\n1", 0, 5))
	if err := db.WritePoint(walPoint("n2", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	legacyWrite(db, walPoint("n\n1", 60, 6))

	db, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if !info.SnapshotLoaded || info.Records != 1 || info.TornFrames != 0 {
		t.Fatalf("recovery = %+v, want the snapshot and 1 clean record", info)
	}
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	// The write at 400 closes bucket [0, 300): its maintenance logs the
	// legacy series' tier row. The writes after it must survive.
	for _, ts := range []int64{120, 400, 460, 520} {
		if err := db.WritePoint(walPoint("n2", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WritePoint(walPoint("n\n3", 580, 1)); err == nil {
		t.Fatal("WritePoints stored a new point whose tag holds a line break")
	}
	want := db.Disk().Points

	db, info = crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if info.TornFrames != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want no torn frame", info)
	}
	if got := db.Disk().Points; got != want {
		t.Fatalf("recovered %d points, want %d", got, want)
	}
	res, err := db.Query(`SELECT "Reading" FROM "Power_max_300s" GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range res.Series {
		rows := s.Rows()
		if len(rows) != 1 || rows[0].Time != 0 {
			t.Fatalf("tier rows of %v: %+v", s.Tags, rows)
		}
		node, _ := s.Tags.Get("NodeId")
		got[node], _ = rows[0].Values[0].AsFloat()
	}
	if len(got) != 2 || got["n\n1"] != 6 || got["n2"] != 120 {
		t.Fatalf("tier bucket 0 = %v, want n\\n1: 6 and n2: 120", got)
	}
}
