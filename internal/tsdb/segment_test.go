package tsdb

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// errInjected is the failure faultyFile returns.
var errInjected = errors.New("injected I/O failure")

// faultyFile is a segment file that fails as a full or failing disk
// does: as armed, its next write lands half its bytes and then fails,
// every truncate fails, or its next fsync fails.
type faultyFile struct {
	*os.File
	tearWrite    bool
	failTruncate bool
	failSync     bool
}

func (f *faultyFile) WriteAt(b []byte, off int64) (int, error) {
	if !f.tearWrite {
		return f.File.WriteAt(b, off)
	}
	f.tearWrite = false
	n, err := f.File.WriteAt(b[:len(b)/2], off)
	return n, errors.Join(errInjected, err)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.File.Truncate(size)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.File.Sync()
}

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
		fault     faultyFile
		closed    bool  // the fault refuses every later append
		recovered int64 // batches a crash-recovery returns
		torn      int64 // torn frames it finds
	}{
		{"torn write", FsyncNever, faultyFile{tearWrite: true}, false, 6, 0},
		{"torn write left in place", FsyncNever, faultyFile{tearWrite: true, failTruncate: true}, true, 3, 1},
		{"failed fsync", FsyncAlways, faultyFile{failSync: true}, true, 4, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db, _ := crashOpen(t, dir, WALOptions{Policy: c.policy})
			write := func(i int) error { return db.WritePoint(walPoint("n1", int64(60*i), float64(i))) }
			for i := 0; i < 3; i++ {
				if err := write(i); err != nil {
					t.Fatal(err)
				}
			}
			fault := c.fault
			fault.File = db.wal.seg.f.(*os.File)
			db.wal.seg.f = &fault
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
	cold, resident := coldFixture(t, 2, 128)
	if n, err := cold.SpillCold(32 * 60); n == 0 || err != nil {
		t.Fatalf("first spill: %d blocks, err %v", n, err)
	}
	seg := cold.cold.appenders[0]
	size := seg.size
	seg.f = &faultyFile{File: seg.f.(*os.File), tearWrite: true}
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
