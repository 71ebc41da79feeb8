package tsdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWALFailedAppend fails one append of a durable DB, keeps writing,
// then crashes and recovers. A torn write the segment cuts back costs
// only its own batch: the log goes on, and every acknowledged batch
// recovers (when the half frame stayed in place, recovery stopped at it
// and dropped every batch behind it). A torn write that cannot be cut
// back, and a failed fsync, close the log: every later batch is
// refused, and recovery returns the acknowledged batches — after the
// failed fsync, plus the refused one, whose bytes had reached the file.
func TestWALFailedAppend(t *testing.T) {
	for _, c := range []struct {
		name      string
		policy    FsyncPolicy
		faults    []faultOp // each fails the next such call on the active segment
		closed    bool      // the fault refuses every later append
		recovered int64     // batches a crash-recovery returns
		torn      int64     // torn frames it finds
	}{
		{"torn write", FsyncNever, []faultOp{opWrite}, false, 6, 0},
		{"torn write left in place", FsyncNever, []faultOp{opWrite, opTruncate}, true, 3, 1},
		{"failed fsync", FsyncAlways, []faultOp{opSync}, true, 4, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := newFaultFS(t, dir)
			db, _ := crashOpenFS(t, fs, dir, WALOptions{Policy: c.policy})
			write := func(i int) error { return db.WritePoint(walPoint("n1", int64(60*i), float64(i))) }
			for i := 0; i < 3; i++ {
				if err := write(i); err != nil {
					t.Fatal(err)
				}
			}
			for _, op := range c.faults {
				fs.fail(op, walSegmentPath(dir, db.wal.seq), 1)
			}
			if err := write(3); !errors.Is(err, errInjected) {
				t.Fatalf("faulted append: err %v, want the injected failure", err)
			}
			acked := int64(3)
			for i := 4; i < 7; i++ {
				err := write(i)
				if (err != nil) != c.closed {
					t.Fatalf("append %d after the fault: err %v, want the log closed: %t", i, err, c.closed)
				}
				if err == nil {
					acked++
				}
			}
			if got := db.Disk().Points; got != acked {
				t.Fatalf("%d points published, %d acknowledged", got, acked)
			}
			db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
			if got := db2.Disk().Points; got != c.recovered || info.TornFrames != c.torn {
				t.Fatalf("recovered %d points and %d torn frames, want %d and %d", got, info.TornFrames, c.recovered, c.torn)
			}
		})
	}
}

// TestColdFailedAppend tears a spill's segment write: the spill
// publishes nothing, the torn bytes are cut back off the file, and the
// next spill lands in a fresh generation, answering bit-identically to
// an all-resident twin.
func TestColdFailedAppend(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS(t, dir)
	cold, resident := coldFixtureOpts(t, Options{ColdDir: dir, fs: fs}, 2, 128)
	if n, err := cold.SpillCold(32 * 60); n == 0 || err != nil {
		t.Fatalf("first spill: %d blocks, err %v", n, err)
	}
	seg := cold.cold.appenders[0]
	size := seg.size
	fs.fail(opWrite, filepath.Join(dir, seg.name), 1)
	before := cold.ColdStats()
	if _, err := cold.SpillCold(math.MaxInt64); !errors.Is(err, errInjected) {
		t.Fatalf("torn spill: err %v, want the injected failure", err)
	}
	if after := cold.ColdStats(); after.BlocksCold != before.BlocksCold {
		t.Fatalf("a failed spill published cold blocks: %+v, was %+v", after, before)
	}
	st, err := os.Stat(filepath.Join(cold.cold.dir, seg.name))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != size {
		t.Fatalf("segment is %d bytes after the torn write, want %d", st.Size(), size)
	}
	if n, err := cold.SpillCold(math.MaxInt64); n == 0 || err != nil {
		t.Fatalf("spill after the failure: %d blocks, err %v", n, err)
	}
	if segs := coldSegments(t, cold.cold.dir); len(segs) != 2 {
		t.Fatalf("segments %v, want the retired generation and a fresh one", segs)
	}
	queriesEqual(t, cold, resident, `SELECT "Reading" FROM "Power" GROUP BY "NodeId"`)
}

// TestWALDictFailedAppend tears the append of a batch that defines a
// new series and a new field name. The frame is cut back off the
// segment, so the dictionary must forget what it defined: the next
// batch of that series defines both again. A dictionary that kept them
// would write a bare reference, recovery would meet an id the segment
// never defined, end the log there and lose that acknowledged batch and
// every one after it.
func TestWALDictFailedAppend(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS(t, dir)
	db, _ := crashOpenFS(t, fs, dir, WALOptions{Policy: FsyncNever})
	ref := Open(Options{ShardDuration: 3600})
	point := func(node string, i int) Point {
		p := walPoint(node, int64(60*i), float64(i))
		p.Fields["Status"] = Str("OK")
		return p
	}
	both := func(p Point) {
		t.Helper()
		for _, d := range []*DB{db, ref} {
			if err := d.WritePoint(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	both(walPoint("n1", 0, 0))
	fs.fail(opWrite, walSegmentPath(dir, db.wal.seq), 1)
	if err := db.WritePoint(point("n2", 1)); !errors.Is(err, errInjected) {
		t.Fatalf("faulted append: err %v, want the injected failure", err)
	}
	if s, f := len(db.wal.dict.series.keys), len(db.wal.dict.fields.keys); s != 1 || f != 1 {
		t.Errorf("after the cut-back append the dictionary holds %d series and %d fields, want 1 and 1", s, f)
	}
	both(point("n2", 2))
	both(point("n1", 3))

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if info.Records != 3 || info.TornFrames != 0 {
		t.Fatalf("recovery = %+v, want the three acknowledged records and no torn frame", info)
	}
	const q = `SELECT "Reading", "Status" FROM "Power" GROUP BY "NodeId"`
	if got, want := queryAll(t, db2, q), queryAll(t, ref, q); got != want {
		t.Fatalf("recovered:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALDictPerSegment drives a write stream across size rotations
// and a checkpoint cut. Every fresh segment starts an empty dictionary,
// so its memory is bounded by one segment and each segment replays on
// its own; a reopen then gives the live DB's counts and answers.
func TestWALDictPerSegment(t *testing.T) {
	const nodes = 8
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever, SegmentSize: 2048})
	batch := func(i int) []Point {
		points := make([]Point, nodes)
		for n := range points {
			points[n] = walPoint(fmt.Sprintf("n%d", n), int64(60*i), float64(i*nodes+n))
		}
		return points
	}
	seq, fresh := db.wal.seq, 0
	for i := 0; i < 40; i++ {
		if i == 20 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if s, f := len(db.wal.dict.series.keys), len(db.wal.dict.fields.keys); s != 0 || f != 0 {
				t.Errorf("the checkpoint's fresh segment starts with %d series and %d fields defined", s, f)
			}
		}
		if err := db.WritePoints(batch(i)); err != nil {
			t.Fatal(err)
		}
		if db.wal.seq != seq {
			// This batch is the first record of a fresh segment: the
			// dictionary holds what it defined and nothing older.
			if s, f := len(db.wal.dict.series.keys), len(db.wal.dict.fields.keys); s != nodes || f != 1 {
				t.Errorf("batch %d opened segment %d with %d series and %d fields defined, want %d and 1", i, db.wal.seq, s, f, nodes)
			}
			seq = db.wal.seq
			fresh++
		}
	}
	if rot := db.WALStats().Rotations; fresh < 3 || rot < 3 {
		t.Fatalf("%d fresh segments written to after %d rotations: the stream must cross a cut and size rotations on either side", fresh, rot)
	}

	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if !info.SnapshotLoaded || info.Points != 20*nodes || info.TornFrames != 0 || info.Segments < 2 {
		t.Fatalf("recovery = %+v, want the checkpoint plus %d points over several segments", info, 20*nodes)
	}
	if got, want := db2.Disk(), db.Disk(); got != want {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	const q = `SELECT "Reading" FROM "Power" GROUP BY "NodeId"`
	if got, want := queryAll(t, db2, q), queryAll(t, db, q); got != want {
		t.Fatalf("recovered:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALDictCorruption opens each segment whose second record breaks
// the dictionary the first started: recovery keeps the first record,
// counts one torn frame and cuts exactly the bad one.
func TestWALDictCorruption(t *testing.T) {
	for _, c := range walDictCorruptions() {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(walSegmentPath(dir, 1), c.seg, 0o644); err != nil {
				t.Fatal(err)
			}
			db, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
			if info.Records != 1 || info.TornFrames != 1 || info.TruncatedBytes != int64(c.bad) {
				t.Fatalf("recovery = %+v, want one record kept and the %d-byte frame cut", info, c.bad)
			}
			if got := db.Disk().Points; got != 1 {
				t.Fatalf("%d points recovered, want 1", got)
			}
		})
	}
}
