package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"monster/internal/clock"
)

// walSegmentPath names log segment seq inside dir.
func walSegmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(walNameFormat, seq))
}

func walPoint(node string, ts int64, v float64) Point {
	return Point{
		Measurement: "Power",
		Tags:        Tags{{Key: "Label", Value: "NodePower"}, {Key: "NodeId", Value: node}},
		Fields:      map[string]Value{"Reading": Float(v)},
		Time:        ts,
	}
}

// crashOpen opens a durable DB without ever closing it — the tests
// simulate kill -9 by simply abandoning the handle, which is exactly
// what a SIGKILLed process does.
func crashOpen(t *testing.T, dir string, wopts WALOptions) (*DB, RecoveryInfo) {
	t.Helper()
	return crashOpenFS(t, nil, dir, wopts)
}

// crashOpenFS is crashOpen on the file system fs.
func crashOpenFS(t *testing.T, fs fsys, dir string, wopts WALOptions) (*DB, RecoveryInfo) {
	t.Helper()
	wopts.Dir = dir
	db, info, err := OpenDurable(Options{ShardDuration: 3600, fs: fs}, wopts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return db, info
}

func TestWALRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if info.SnapshotLoaded || info.Records != 0 {
		t.Fatalf("fresh dir recovered state: %+v", info)
	}

	for i := 0; i < 20; i++ {
		if err := db.WritePoints([]Point{
			walPoint("n1", int64(60*i), float64(i)),
			walPoint("n2", int64(60*i), float64(2*i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WritePoint(Point{Measurement: "scratch", Fields: map[string]Value{"f": Int(1)}, Time: 5}); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.DropMeasurement("scratch"); !ok || err != nil {
		t.Fatalf("drop: ok=%t err=%v", ok, err)
	}
	wantPoints := db.Disk().Points
	wantEpochedSeries := db.SeriesCardinality("")

	// Crash (no close, no checkpoint) and recover.
	db2, info2 := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if info2.SnapshotLoaded {
		t.Fatal("no checkpoint was taken, yet a snapshot loaded")
	}
	if info2.Records != 22 || info2.TornFrames != 0 {
		t.Fatalf("recovery = %+v, want 22 clean records", info2)
	}
	if got := db2.Disk().Points; got != wantPoints {
		t.Fatalf("recovered %d points, want %d", got, wantPoints)
	}
	if got := db2.SeriesCardinality(""); got != wantEpochedSeries {
		t.Fatalf("recovered %d series, want %d", got, wantEpochedSeries)
	}
	if ms := db2.Measurements(); len(ms) != 1 || ms[0] != "Power" {
		t.Fatalf("recovered measurements %v (the drop was not replayed)", ms)
	}
	st := db2.WALStats()
	if st.Replayed != 22 || st.TornFrames != 0 {
		t.Fatalf("WALStats = %+v", st)
	}

	// The recovered database answers queries identically.
	r1, err := db.Query(`SELECT max("Reading") FROM "Power" GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Query(`SELECT max("Reading") FROM "Power" GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Series) != len(r2.Series) {
		t.Fatalf("series %d vs %d after recovery", len(r1.Series), len(r2.Series))
	}
}

func TestWALRecoverDeleteBefore(t *testing.T) {
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	for ts := int64(0); ts < 10*3600; ts += 3600 {
		if err := db.WritePoint(walPoint("n1", ts, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.DeleteBefore(5 * 3600); n != 5 || err != nil {
		t.Fatalf("DeleteBefore = %d, %v", n, err)
	}
	want := db.Disk().Points

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if got := db2.Disk().Points; got != want {
		t.Fatalf("recovered %d points, want %d (retention sweep not replayed; info %+v)", got, want, info)
	}
}

// TestWALKillPoints is the kill-point matrix: truncate the log at
// every byte offset and assert recovery yields exactly the longest
// valid prefix of acknowledged batches, never more, never a crash.
func TestWALKillPoints(t *testing.T) {
	master := t.TempDir()
	db, _ := crashOpen(t, master, WALOptions{Policy: FsyncNever})

	// Frame boundaries after each batch: boundaries[i] = segment size
	// once batch i is durable, so a truncation at offset off recovers
	// count(boundaries <= off) batches.
	const batches = 12
	var boundaries []int64
	for i := 0; i < batches; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
		db.wal.mu.Lock()
		boundaries = append(boundaries, db.wal.seg.size)
		db.wal.mu.Unlock()
	}
	segPath := walSegmentPath(master, 1)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != boundaries[batches-1] {
		t.Fatalf("segment size %d, want %d", len(data), boundaries[batches-1])
	}

	for off := int64(0); off <= int64(len(data)); off++ {
		wantBatches := 0
		for _, b := range boundaries {
			if b <= off {
				wantBatches++
			}
		}
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("kill-%d", off))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walSegmentPath(dir, 1), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, info, err := OpenDurable(Options{ShardDuration: 3600}, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("offset %d: OpenDurable: %v", off, err)
		}
		if got := rec.Disk().Points; got != int64(wantBatches) {
			t.Fatalf("offset %d: recovered %d points, want %d (info %+v)", off, got, wantBatches, info)
		}
		atBoundary := off == fileHeaderSize
		for _, b := range boundaries {
			if b == off {
				atBoundary = true
			}
		}
		if atBoundary && info.TornFrames != 0 {
			t.Fatalf("offset %d is a frame boundary yet counted torn: %+v", off, info)
		}
		if !atBoundary && off > fileHeaderSize && info.TornFrames != 1 {
			t.Fatalf("offset %d tore a frame but stats say %+v", off, info)
		}
		// Recovery after recovery is stable: the truncated tail is gone.
		rec2, info2, err := OpenDurable(Options{ShardDuration: 3600}, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("offset %d: second recovery: %v", off, err)
		}
		if rec2.Disk().Points != rec.Disk().Points || info2.TornFrames != 0 {
			t.Fatalf("offset %d: second recovery diverged: %d vs %d points, info %+v",
				off, rec2.Disk().Points, rec.Disk().Points, info2)
		}
	}
}

// TestWALKillPointsSealedBlocks reruns the kill-point matrix with an
// aggressive seal threshold, so recovery replays into an engine that
// compresses as it goes: every truncation offset must recover the same
// longest valid prefix, with columns split across sealed blocks and
// the raw tail.
func TestWALKillPointsSealedBlocks(t *testing.T) {
	sealedOpts := Options{ShardDuration: 3600, BlockSize: 4}
	master := t.TempDir()
	db, _, err := OpenDurable(sealedOpts, WALOptions{Dir: master, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 12
	var boundaries []int64
	for i := 0; i < batches; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
		db.wal.mu.Lock()
		boundaries = append(boundaries, db.wal.seg.size)
		db.wal.mu.Unlock()
	}
	if cs := db.Compression(); cs.Blocks != 3 {
		t.Fatalf("writer did not seal: %+v", cs)
	}
	data, err := os.ReadFile(walSegmentPath(master, 1))
	if err != nil {
		t.Fatal(err)
	}

	for off := int64(0); off <= int64(len(data)); off++ {
		wantBatches := int64(0)
		for _, b := range boundaries {
			if b <= off {
				wantBatches++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(walSegmentPath(dir, 1), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, info, err := OpenDurable(sealedOpts, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("offset %d: OpenDurable: %v", off, err)
		}
		if got := rec.Disk().Points; got != wantBatches {
			t.Fatalf("offset %d: recovered %d points, want %d (info %+v)", off, got, wantBatches, info)
		}
		cs := rec.Compression()
		if cs.SealedPoints+cs.TailPoints != wantBatches {
			t.Fatalf("offset %d: compression accounting lost points: %+v, want %d", off, cs, wantBatches)
		}
		if wantSealed := wantBatches / 4 * 4; cs.SealedPoints != wantSealed {
			t.Fatalf("offset %d: %d sealed points, want %d", off, cs.SealedPoints, wantSealed)
		}
		// The replayed data answers queries (decoding sealed blocks).
		res, err := rec.Query(`SELECT count("Reading") FROM "Power"`)
		if err != nil {
			t.Fatalf("offset %d: query: %v", off, err)
		}
		if wantBatches > 0 {
			if n := res.Series[0].Rows()[0].Values[0].I; n != wantBatches {
				t.Fatalf("offset %d: count = %d, want %d", off, n, wantBatches)
			}
		}
	}
}

// TestWALCheckpointSealedBlocks checkpoints a database whose columns
// hold sealed blocks: the snapshot (blocks verbatim) must load on
// recovery and merge cleanly with post-checkpoint WAL replay.
func TestWALCheckpointSealedBlocks(t *testing.T) {
	sealedOpts := Options{ShardDuration: 3600, BlockSize: 4}
	dir := t.TempDir()
	db, _, err := OpenDurable(sealedOpts, WALOptions{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	db2, info, err := OpenDurable(sealedOpts, WALOptions{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded || info.SnapshotPoints != 10 || info.Points != 5 {
		t.Fatalf("recovery split = %+v, want 10 snapshot + 5 replayed points", info)
	}
	cs := db2.Compression()
	if cs.SealedPoints != 12 || cs.TailPoints != 3 {
		t.Fatalf("recovered compression state %+v, want 12 sealed + 3 tail", cs)
	}
	r1, err := db.Query(`SELECT "Reading" FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Query(`SELECT "Reading" FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatResult(r2), FormatResult(r1); got != want {
		t.Fatalf("recovered data diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWALCorruptionMidSegmentDropsTail(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so corruption lands mid-log with
	// whole segments after it.
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever, SegmentSize: 256})
	for i := 0; i < 40; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if db.WALStats().Rotations == 0 {
		t.Fatal("no rotation at 256-byte segments")
	}
	segs, err := listDir(osFS{}, dir, walSeq)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(segs), err)
	}

	// Flip one payload byte in the second segment.
	data, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[fileHeaderSize+frameHeader] ^= 0xFF
	if err := os.WriteFile(segs[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if info.TornFrames != 1 {
		t.Fatalf("info = %+v, want exactly one torn frame", info)
	}
	// Everything from the first segment replayed; everything at and
	// after the corrupt frame is gone, including later segments.
	firstSegBatches := db2.Disk().Points
	if firstSegBatches == 0 || firstSegBatches >= 40 {
		t.Fatalf("recovered %d points, want a proper prefix", firstSegBatches)
	}
	for _, s := range segs[2:] {
		if _, err := os.Stat(s.path); !os.IsNotExist(err) {
			t.Fatalf("post-tear segment %s survived", s.path)
		}
	}
}

func TestWALCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	for i := 0; i < 10; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.WALStats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
	if st.Segments != 1 {
		t.Fatalf("segments after checkpoint = %d, want just the active one", st.Segments)
	}
	// Post-checkpoint writes land in the new segment.
	for i := 10; i < 15; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if !info.SnapshotLoaded {
		t.Fatal("checkpoint snapshot not loaded")
	}
	if info.SnapshotPoints != 10 || info.Points != 5 {
		t.Fatalf("recovery split = %+v, want 10 snapshot + 5 replayed points", info)
	}
	if got := db2.Disk().Points; got != 15 {
		t.Fatalf("recovered %d points, want 15", got)
	}
}

func TestWALFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		db, _ := crashOpen(t, t.TempDir(), WALOptions{Policy: FsyncAlways})
		for i := 0; i < 3; i++ {
			if err := db.WritePoint(walPoint("n1", int64(i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if st := db.WALStats(); st.Syncs != 3 {
			t.Fatalf("syncs = %d, want one per append", st.Syncs)
		}
	})
	t.Run("interval", func(t *testing.T) {
		sim := clock.NewSim(time.Unix(0, 0))
		db, _ := crashOpen(t, t.TempDir(), WALOptions{
			Policy: FsyncInterval, SyncInterval: time.Second, Clock: sim,
		})
		for i := 0; i < 5; i++ {
			if err := db.WritePoint(walPoint("n1", int64(i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if st := db.WALStats(); st.Syncs != 0 {
			t.Fatalf("syncs before the interval elapsed = %d", st.Syncs)
		}
		sim.Advance(2 * time.Second)
		if err := db.WritePoint(walPoint("n1", 100, 1)); err != nil {
			t.Fatal(err)
		}
		if st := db.WALStats(); st.Syncs != 1 {
			t.Fatalf("syncs after the interval elapsed = %d, want 1", st.Syncs)
		}
	})
	t.Run("never", func(t *testing.T) {
		db, _ := crashOpen(t, t.TempDir(), WALOptions{Policy: FsyncNever})
		for i := 0; i < 3; i++ {
			if err := db.WritePoint(walPoint("n1", int64(i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if st := db.WALStats(); st.Syncs != 0 {
			t.Fatalf("syncs = %d, want none", st.Syncs)
		}
	})
}

// TestWALConcurrentWritesAndCheckpoints drives writers against the
// checkpoint loop (run with -race): every acknowledged batch must
// survive crash-recovery regardless of which side of a checkpoint cut
// it landed on.
func TestWALConcurrentWritesAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever, SegmentSize: 4096})

	const writers = 4
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := fmt.Sprintf("n%d", w)
			for i := 0; i < perWriter; i++ {
				if err := db.WritePoint(walPoint(node, int64(60*i), float64(i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	want := db.Disk().Points
	if want != writers*perWriter {
		t.Fatalf("acked %d points, want %d", want, writers*perWriter)
	}

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if got := db2.Disk().Points; got != want {
		t.Fatalf("recovered %d points, want %d (info %+v)", got, want, info)
	}
	if info.TornFrames != 0 {
		t.Fatalf("clean log reported torn frames: %+v", info)
	}
}

func TestWALStatsSurfaceAndClose(t *testing.T) {
	db := Open(Options{})
	if st := db.WALStats(); st != (WALStats{}) {
		t.Fatalf("memory-only DB reported WAL stats %+v", st)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint on a memory-only DB succeeded")
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL on memory-only DB: %v", err)
	}

	dir := t.TempDir()
	ddb, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if err := ddb.WritePoint(walPoint("n1", 0, 1)); err != nil {
		t.Fatal(err)
	}
	st := ddb.WALStats()
	if st.Appends != 1 || st.Segments != 1 || st.Bytes <= fileHeaderSize {
		t.Fatalf("stats = %+v", st)
	}
	if err := ddb.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := ddb.WritePoint(walPoint("n1", 60, 1)); err == nil {
		t.Fatal("write after CloseWAL succeeded silently — durability contract broken")
	}
}

// TestWALRefusedMutationPublishesNothing closes the log under a durable
// DB with a two-level rollup chain and drives every logged mutator at
// it. Each must fail, and readers must see nothing of it: the same
// epoch, counters (but the lock wait), tier watermarks and answers.
func TestWALRefusedMutationPublishesNothing(t *testing.T) {
	db, _ := crashOpen(t, t.TempDir(), WALOptions{Policy: FsyncNever})
	for _, spec := range []RollupSpec{
		{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300},
		{Source: "Power_max_300s", Field: "Reading", Aggregate: "max", Interval: 3600},
	} {
		if err := db.RegisterRollup(spec); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(0); ts < 7200; ts += 60 {
		if err := db.WritePoint(walPoint("n1", ts, float64(ts%1000))); err != nil {
			t.Fatal(err)
		}
	}
	state := func() string {
		st := db.Stats()
		st.WriteWaitNs = 0
		var sb strings.Builder
		fmt.Fprintf(&sb, "epoch %d\nstats %+v\ntiers %+v\n", db.Epoch(), st, db.TierStats())
		for _, q := range []string{
			`SELECT "Reading" FROM "Power"`,
			`SELECT max("Reading") FROM "Power" GROUP BY time(1h)`,
		} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Series {
				fmt.Fprintf(&sb, "%s: %v\n", q, s.Rows())
			}
		}
		return sb.String()
	}
	want := state()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		mutate func() error
	}{
		// Closes the [6900, 7200) bucket: raw point plus tier ops.
		{"WritePoints", func() error { return db.WritePoints([]Point{walPoint("n1", 7230, 99)}) }},
		{"DropMeasurement", func() error { _, err := db.DropMeasurement("Power"); return err }},
		{"DeleteBefore", func() error { _, err := db.DeleteBefore(3600); return err }},
		{"DeleteMeasurementBefore", func() error { _, err := db.DeleteMeasurementBefore("Power", 1800); return err }},
		{"ExpireRaw", func() error { _, err := db.ExpireRaw(3600); return err }},
	} {
		if err := row.mutate(); err == nil {
			t.Errorf("%s succeeded with the log closed", row.name)
		}
		if got := state(); got != want {
			t.Fatalf("%s published a mutation the log refused:\n got %s\nwant %s", row.name, got, want)
		}
	}
}

// TestWALCheckpointCrashBeforeTruncate pins the nastiest checkpoint
// crash window: the boundary-stamped snapshot has atomically renamed
// into place, but the process died before the covered segments (and
// the previous snapshot) were deleted. The store appends duplicate
// timestamps rather than overwriting, so replaying a covered segment
// would double every point. Recovery must load the newest snapshot,
// SKIP the covered segments, and clean the stale files up.
func TestWALCheckpointCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	for i := 0; i < 10; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// First, a completed checkpoint, so a stale older snapshot exists.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Now the crashing checkpoint: cut + snapshot rename, no truncation
	// (exactly Checkpoint minus its truncateBefore call).
	_ = db.lockWrite()
	boundary, err := db.wal.cut()
	v := db.view.Load()
	db.unlockWrite()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.saveViewFile(v, snapshotPath(dir, boundary), false); err != nil {
		t.Fatal(err)
	}

	snaps, err := listDir(osFS{}, dir, snapshotBoundary)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots on disk (completed + crashed), got %d (%v)", len(snaps), err)
	}

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if !info.SnapshotLoaded || info.SnapshotPoints != 15 {
		t.Fatalf("recovery did not load the newest snapshot: %+v", info)
	}
	if info.Records != 0 {
		t.Fatalf("recovery replayed %d covered records — points would double", info.Records)
	}
	if got := db2.Disk().Points; got != 15 {
		t.Fatalf("recovered %d points, want 15 (no double replay)", got)
	}
	// Stale files were swept: one snapshot, no covered segments.
	snaps, err = listDir(osFS{}, dir, snapshotBoundary)
	if err != nil || len(snaps) != 1 || snaps[0].key != boundary {
		t.Fatalf("stale snapshots not swept: %v (%v)", snaps, err)
	}
	segs, err := listDir(osFS{}, dir, walSeq)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.key < boundary {
			t.Fatalf("covered segment %s survived recovery", s.path)
		}
	}
}

// TestWALReplayApplyErrorKeepsLog pins the difference between a record
// that is corrupt and a record that cannot be applied. The log here is
// intact; the fault is a flipped byte in an unrelated cold segment,
// which the second record trips over because its out-of-order write
// reaches behind the spilled block and has to unseal it. Replay must
// return that error and leave every log byte in place — treating it as
// a torn tail would truncate the segment and delete the one after it,
// destroying acknowledged records over a fault that is not theirs.
func TestWALReplayApplyErrorKeepsLog(t *testing.T) {
	coldDir := t.TempDir()
	db := Open(Options{ShardDuration: 3600, BlockSize: 4, ColdDir: coldDir})
	for i := 0; i < 4; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.SpillCold(3600); n != 1 || err != nil {
		t.Fatalf("spilled %d blocks, err %v", n, err)
	}
	segs := coldSegments(t, coldDir)
	if len(segs) != 1 {
		t.Fatalf("cold segments: %v", segs)
	}
	coldPath := filepath.Join(coldDir, segs[0])
	cold, err := os.ReadFile(coldPath)
	if err != nil {
		t.Fatal(err)
	}
	cold[coldHeaderSize+frameHeader+3] ^= 0x40
	if err := os.WriteFile(coldPath, cold, 0o644); err != nil {
		t.Fatal(err)
	}

	walDir := t.TempDir()
	seg1 := walSeedSegment(
		&walRecord{op: walOpWrite, points: []Point{walPoint("n1", 600, 10)}}, // in order: applies
		&walRecord{op: walOpWrite, points: []Point{walPoint("n1", 30, 0.5)}}, // behind the cold block: must unseal it
	)
	seg2 := walSeedSegment(&walRecord{op: walOpWrite, points: []Point{walPoint("n1", 660, 11)}})
	for seq, data := range map[uint64][]byte{1: seg1, 2: seg2} {
		if err := os.WriteFile(walSegmentPath(walDir, seq), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	live, err := listDir(osFS{}, walDir, walSeq)
	if err != nil {
		t.Fatal(err)
	}

	var info RecoveryInfo
	if _, err := replayWAL(db, live, &info); !errors.Is(err, errColdCorrupt) {
		t.Fatalf("replay error = %v, want the cold segment's corruption", err)
	}
	if info.Records != 1 || info.TornFrames != 0 {
		t.Fatalf("replay info %+v, want one applied record and no torn frame", info)
	}
	if got, err := os.ReadFile(walSegmentPath(walDir, 1)); err != nil || !bytes.Equal(got, seg1) {
		t.Fatalf("segment 1 modified by a failed replay (err %v): %d bytes, were %d", err, len(got), len(seg1))
	}
	if got, err := os.ReadFile(walSegmentPath(walDir, 2)); err != nil || !bytes.Equal(got, seg2) {
		t.Fatalf("segment 2 did not survive a failed replay: err %v", err)
	}
}

// TestWALOpenRemovesAbandonedSnapshotTemp plants what a checkpoint
// killed between CreateTemp and rename leaves behind: OpenDurable must
// delete it (nothing else ever would) and recover exactly as without.
func TestWALOpenRemovesAbandonedSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	for i := 0; i < 10; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	temp := filepath.Join(dir, snapshotTempPrefix+"1234567890")
	if err := os.WriteFile(temp, []byte("MTSD half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if _, err := os.Stat(temp); !os.IsNotExist(err) {
		t.Fatalf("abandoned temp file survived recovery (stat err %v)", err)
	}
	if !info.SnapshotLoaded || info.SnapshotPoints != 10 || info.Points != 5 || info.TornFrames != 0 {
		t.Fatalf("recovery = %+v, want 10 snapshot + 5 replayed points", info)
	}
	if got, want := queryAll(t, db2, `SELECT "Reading" FROM "Power"`), queryAll(t, db, `SELECT "Reading" FROM "Power"`); got != want {
		t.Fatalf("recovered data diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// walLoggedOps decodes the op of every record in dir's log segments.
func walLoggedOps(t *testing.T, dir string) []walOp {
	t.Helper()
	segs, err := listDir(osFS{}, dir, walSeq)
	if err != nil {
		t.Fatal(err)
	}
	var ops []walOp
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		for off := fileHeaderSize; off < len(data); {
			payload, _, err := readFrame(data[off:])
			if err != nil {
				t.Fatalf("%s offset %d: %v", filepath.Base(seg.path), off, err)
			}
			ops = append(ops, walOp(payload[0]))
			off += frameHeader + len(payload)
		}
	}
	return ops
}

// TestWALReplaysEveryOp closes the gap between "the decoder knows the
// op" and "replay applies it": for every walOp the record decoder
// accepts, a record of that op is the only thing logged after a
// checkpoint, the process dies, and the reopened DB must answer a probe
// over every measurement exactly as the dead one did. The ops are
// enumerated from the decoder, not listed: a new walOp without a row
// here fails the test, as does a replay arm that is missing or inert.
func TestWALReplaysEveryOp(t *testing.T) {
	spec := RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}
	// mutate must log exactly one record, of the row's op, and change
	// the probe's answer. Seeded state: Power on n1 every 60 s over
	// [0, 7200) — two shards — with a 300 s max tier registered.
	rows := map[walOp]func(db *DB) error{
		walOpWrite: func(db *DB) error {
			// Inside the open bucket: no tier op, so a plain record.
			return db.WritePoint(walPoint("n1", 7170, 99))
		},
		walOpDrop: func(db *DB) error {
			_, err := db.DropMeasurement("Power")
			return err
		},
		walOpDeleteBefore: func(db *DB) error {
			_, err := db.DeleteBefore(3600)
			return err
		},
		walOpBatch: func(db *DB) error {
			// Crosses a bucket boundary: the raw point and the tier
			// rows it closes ride in one composite record.
			return db.WritePoint(walPoint("n1", 7230, 99))
		},
		walOpClearRange: func(db *DB) error {
			_, err := db.DeleteMeasurementBefore("Power", 1800)
			return err
		},
	}
	probe := func(db *DB) string {
		var sb strings.Builder
		for _, m := range db.Measurements() {
			res, err := db.Query(fmt.Sprintf(`SELECT "Reading" FROM %q GROUP BY "NodeId"`, m))
			if err != nil {
				t.Fatalf("probe %s: %v", m, err)
			}
			for _, s := range res.Series {
				fmt.Fprintf(&sb, "%s%v:", m, s.Tags)
				for _, r := range s.Rows() {
					fmt.Fprintf(&sb, " %d=%v", r.Time, r.Values[0])
				}
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}

	known := 0
	for op := walOp(1); ; op++ {
		if _, err := decodeWALRecord([]byte{byte(op)}, &walDefs{}); strings.Contains(err.Error(), "bad op") {
			break // past the last op the decoder accepts
		}
		known++
		mutate, ok := rows[op]
		if !ok {
			t.Errorf("walOp %d has no row: add a mutation that logs it", op)
			continue
		}
		t.Run(fmt.Sprintf("op%d", op), func(t *testing.T) {
			dir := t.TempDir()
			db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
			if err := db.RegisterRollup(spec); err != nil {
				t.Fatal(err)
			}
			for ts := int64(0); ts < 7200; ts += 60 {
				if err := db.WritePoint(walPoint("n1", ts, float64(ts%1000))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := probe(db)
			if err := mutate(db); err != nil {
				t.Fatal(err)
			}
			if got := walLoggedOps(t, dir); len(got) != 1 || got[0] != op {
				t.Fatalf("log after the checkpoint holds ops %v, want exactly [%d]", got, op)
			}
			want := probe(db)
			if want == before {
				t.Fatal("the mutation did not change the probe: the row proves nothing")
			}

			// Crash (no close, no checkpoint) and recover.
			db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
			if !info.SnapshotLoaded || info.Records != 1 {
				t.Fatalf("recovery = %+v, want the checkpoint plus one replayed record", info)
			}
			if got := probe(db2); got != want {
				t.Fatalf("op %d not replayed:\nrecovered:\n%s\nwant:\n%s", op, got, want)
			}
		})
	}
	if known != len(rows) {
		t.Errorf("%d rows for %d walOps: a row names an op the decoder rejects", len(rows), known)
	}
}

// TestWALDictionaryCanonicalTagOrder: one series written with its tags
// in two orders is one series, so its segment defines it once and
// replay yields one series.
func TestWALDictionaryCanonicalTagOrder(t *testing.T) {
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	for i, tags := range []Tags{{{"a", "1"}, {"b", "2"}}, {{"b", "2"}, {"a", "1"}}} {
		p := Point{Measurement: "m", Tags: tags, Fields: map[string]Value{"f": Float(float64(i))}, Time: int64(60 * (i + 1))}
		if err := db.WritePoint(p); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(walSegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defs := &walDefs{}
	for off := fileHeaderSize; off < len(data); {
		payload, _, err := readFrame(data[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if _, err := decodeWALRecord(payload, defs); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		off += frameHeader + len(payload)
	}
	if len(defs.series) != 1 {
		t.Fatalf("segment defines %d series, want 1: %v", len(defs.series), defs.series)
	}
	rec, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if info.Points != 2 {
		t.Fatalf("replayed %d points, want 2", info.Points)
	}
	if n := len(rec.view.Load().index["m"].series); n != 1 {
		t.Fatalf("replay yields %d series, want 1", n)
	}
}
