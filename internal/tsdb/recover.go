package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
)

// snapshotNameFormat names the checkpoint snapshot of a cut boundary.
const snapshotNameFormat = "snapshot-%08d.mtsd"

// snapshotPath names a checkpoint snapshot inside a WAL directory. The
// embedded number is the checkpoint's cut boundary: every record in
// segments numbered below it is folded into the snapshot, and recovery
// replays only segments at or above it. Carrying the boundary in the
// file name makes "snapshot + covered prefix" a single atomic rename —
// the store appends duplicate timestamps rather than overwriting, so a
// crash between snapshot and log truncation must not replay covered
// records a second time.
func snapshotPath(dir string, boundary uint64) string {
	return filepath.Join(dir, fmt.Sprintf(snapshotNameFormat, boundary))
}

// snapshotBoundary is the listDir parser for snapshot names.
func snapshotBoundary(name string) (uint64, bool) { return parseNumbered(snapshotNameFormat, name) }

// RecoveryInfo summarizes what OpenDurable reconstructed.
type RecoveryInfo struct {
	// SnapshotLoaded reports whether a checkpoint snapshot existed and
	// was restored before replay.
	SnapshotLoaded bool
	// SnapshotPoints is the point count restored from the snapshot.
	SnapshotPoints int64
	// Segments is how many WAL segment files were scanned.
	Segments int
	// Records and Points count the WAL entries re-applied on top of the
	// snapshot.
	Records int64
	Points  int64
	// TornFrames counts bad frames (short, CRC-mismatched, or
	// undecodable) found at the tail; the log was truncated at the
	// first one and TruncatedBytes were discarded.
	TornFrames     int64
	TruncatedBytes int64
}

// OpenDurable opens a crash-safe DB rooted at wopts.Dir: it restores
// the checkpoint snapshot if one exists, replays the write-ahead log
// on top (recovering the longest valid prefix and truncating a torn
// tail in place), then attaches a fresh log segment so every
// subsequent mutation is logged before it applies. A valid record that
// cannot be applied fails the open and leaves the log as it was. The
// returned RecoveryInfo is also visible through DB.WALStats.
func OpenDurable(opts Options, wopts WALOptions) (*DB, RecoveryInfo, error) {
	var info RecoveryInfo
	if wopts.Dir == "" {
		return nil, info, fmt.Errorf("tsdb: open durable: WAL directory required")
	}
	if err := os.MkdirAll(wopts.Dir, 0o755); err != nil {
		return nil, info, fmt.Errorf("tsdb: open durable: %w", err)
	}
	wopts.applyDefaults()
	if err := removeSnapshotTemps(wopts.Dir); err != nil {
		return nil, info, fmt.Errorf("tsdb: open durable: %w", err)
	}

	// The newest snapshot wins; older snapshots and the segments its
	// boundary covers are leftovers from a checkpoint that crashed
	// between its atomic rename and its truncation pass. Replaying a
	// covered segment would apply its records a second time, so stale
	// files are deleted, never replayed.
	snaps, err := listDir(wopts.Dir, snapshotBoundary)
	if err != nil {
		return nil, info, fmt.Errorf("tsdb: open durable: %w", err)
	}
	var boundary uint64
	var db *DB
	var restoredView *dbView // the snapshot's view, pre-replay
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1]
		db, err = loadFileOptions(newest.path, opts)
		if err != nil {
			return nil, info, fmt.Errorf("tsdb: open durable: %w", err)
		}
		restoredView = db.view.Load()
		boundary = newest.key
		info.SnapshotLoaded = true
		info.SnapshotPoints = db.Stats().PointsWritten
		for _, stale := range snaps[:len(snaps)-1] {
			if err := os.Remove(stale.path); err != nil {
				return nil, info, fmt.Errorf("tsdb: open durable: drop stale snapshot: %w", err)
			}
		}
	} else {
		db = Open(opts)
	}

	segs, err := listDir(wopts.Dir, walSeq)
	if err != nil {
		return nil, info, fmt.Errorf("tsdb: open durable: %w", err)
	}
	live := segs[:0]
	for _, seg := range segs {
		if seg.key < boundary {
			if err := os.Remove(seg.path); err != nil {
				return nil, info, fmt.Errorf("tsdb: open durable: drop covered segment: %w", err)
			}
			continue
		}
		live = append(live, seg)
	}
	surviving, err := replayWAL(db, live, &info)
	if err != nil {
		return nil, info, err
	}

	if db.cold != nil {
		// Sweep cold segments neither the on-disk snapshot nor the
		// replayed state references: crashed spills, crashed
		// compactions, and files for data the replay dropped. The
		// snapshot's own references must survive — this same recovery
		// may run again from the same snapshot after another crash.
		if err := db.cold.sweepOrphans(restoredView, db.view.Load()); err != nil {
			return nil, info, fmt.Errorf("tsdb: open durable: %w", err)
		}
	}

	w, err := openWAL(wopts, surviving)
	if err != nil {
		return nil, info, err
	}
	w.mu.Lock()
	w.stats.Replayed = info.Records
	w.stats.ReplayedPoints = info.Points
	w.stats.TornFrames = info.TornFrames
	w.stats.TruncatedBytes = info.TruncatedBytes
	w.mu.Unlock()
	db.wal = w
	return db, info, nil
}

// replayWAL applies every decodable record in segment order. At the
// first bad frame it truncates that segment at the frame boundary,
// deletes any later segments (records after a tear have no reliable
// ordering), and stops — the recovered state is the longest valid
// prefix of the log. It returns the segments that remain on disk.
func replayWAL(db *DB, segs []dirFile, info *RecoveryInfo) ([]dirFile, error) {
	info.Segments = len(segs)
	for i, seg := range segs {
		tornAt, err := replaySegment(db, seg, info)
		if err != nil {
			return nil, err
		}
		if tornAt < 0 {
			continue // segment fully replayed
		}
		info.TornFrames++
		info.TruncatedBytes += seg.size - tornAt
		surviving := append([]dirFile(nil), segs[:i]...)
		if tornAt <= fileHeaderSize {
			// Nothing valid remains in this segment (torn or foreign
			// header, or an empty record area): drop the file so later
			// recoveries don't re-count it.
			if err := os.Remove(seg.path); err != nil {
				return nil, fmt.Errorf("tsdb: wal: drop torn segment: %w", err)
			}
		} else {
			if err := os.Truncate(seg.path, tornAt); err != nil {
				return nil, fmt.Errorf("tsdb: wal: truncate torn tail: %w", err)
			}
			seg.size = tornAt
			surviving = append(surviving, seg)
		}
		for _, later := range segs[i+1:] {
			info.TruncatedBytes += later.size
			if err := os.Remove(later.path); err != nil {
				return nil, fmt.Errorf("tsdb: wal: drop post-tear segment: %w", err)
			}
		}
		return surviving, nil
	}
	return segs, nil
}

// replaySegment applies one segment's records to db. It returns -1
// when the whole segment replayed cleanly, or the byte offset of the
// first bad frame (never a mid-frame offset). A record that decodes but
// fails to apply is not a bad frame: the fault lies in what the record
// touched — an unreadable cold segment behind an out-of-order write —
// so it is returned as an error and no log file is modified.
func replaySegment(db *DB, seg dirFile, info *RecoveryInfo) (int64, error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, fmt.Errorf("tsdb: wal: read segment: %w", err)
	}
	return decodeSegment(data, func(off int, rec walRecord) error {
		if err := applyWALRecord(db, rec); err != nil {
			return fmt.Errorf("tsdb: wal: replay %s record at offset %d: %w", filepath.Base(seg.path), off, err)
		}
		info.Records++
		info.Points += int64(len(rec.points))
		return nil
	})
}

// decodeSegment hands the records of a segment image to apply in order,
// stopping at apply's first error, and returns replaySegment's offset:
// -1, or where the first bad frame starts.
func decodeSegment(data []byte, apply func(off int, rec walRecord) error) (int64, error) {
	hdr := decoder{b: data}
	ver := hdr.fileHeader(walMagic)
	if hdr.err != nil || (ver != 1 && ver != walVersion) {
		// The segment header itself is torn or foreign; nothing in this
		// file is trustworthy.
		return 0, nil
	}
	var defs *walDefs // version 1 names every point in full
	if ver == walVersion {
		defs = &walDefs{}
	}
	off := fileHeaderSize
	for off < len(data) {
		payload, _, err := readFrame(data[off:])
		if err != nil {
			return int64(off), nil // torn mid-header or mid-payload, or checksum mismatch
		}
		rec, err := decodeWALRecord(payload, defs)
		if err != nil {
			// CRC-valid but undecodable: corrupt frame. Later records
			// may refer to names it defined, so the prefix ends here.
			return int64(off), nil
		}
		if err := apply(off, rec); err != nil {
			return 0, err
		}
		off += frameHeader + len(payload)
	}
	return -1, nil
}

// applyWALRecord re-applies one mutation. The DB has no WAL attached
// during replay, so nothing is re-logged; rollup specs are registered
// only after OpenDurable returns, so replaying a write never re-runs
// tier maintenance — composite records carry their derived ops and
// replay them verbatim instead.
func applyWALRecord(db *DB, rec walRecord) error {
	switch rec.op {
	case walOpWrite, walOpBatch:
		return db.applyBatchRecord(rec.points, rec.ops)
	case walOpDrop:
		_, err := db.DropMeasurement(rec.name)
		return err
	case walOpDeleteBefore:
		_, err := db.DeleteBefore(rec.before)
		return err
	case walOpClearRange:
		_, err := db.clearRange(rec.name, rec.start, rec.end)
		return err
	default:
		return fmt.Errorf("tsdb: wal: bad op %d", rec.op)
	}
}

// applyBatchRecord replays a write or composite record: the raw write
// batch, then each rollup op through applyRollupOp, as maintenance
// applied it at log time. Every point was validated when the record was
// decoded, without WritePoints' line-break rule (see validated).
// One commit keeps the whole record atomic for readers, the same
// guarantee the original write gave.
func (db *DB) applyBatchRecord(points []Point, ops []rollupOp) error {
	return db.commit(func(v *dbView) (_ *dbView, _ *walRecord, err error) {
		if len(points) > 0 {
			if v, err = db.writePointsView(v, points); err != nil {
				return nil, nil, err
			}
		}
		for i := range ops {
			if v, err = db.applyRollupOp(v, &ops[i]); err != nil {
				return nil, nil, err
			}
		}
		return v, &walRecord{op: walOpBatch, points: points, ops: ops}, nil
	})
}

// Checkpoint makes the WAL directory's snapshot current and truncates
// the log: it cuts a segment boundary under the write lock (so the
// pinned view contains exactly the records in the sealed segments),
// serializes that view to a boundary-stamped snapshot file, and
// deletes the sealed prefix plus any older snapshot. Concurrent writes
// proceed after the cut and stay logged in the new segment. A crash
// anywhere in the protocol recovers consistently: before the
// snapshot's atomic rename the previous snapshot + full log apply;
// after it, recovery loads the new snapshot and skips (deletes) the
// covered segments, so no record is ever applied twice. It is an error
// on a DB without a WAL.
//
// With a cold tier attached, Checkpoint is also the tier's maintenance
// point: mostly-garbage segment files are compacted (rewritten into a
// fresh generation) before the cut so the snapshot records the new
// layout, and after the snapshot is durable, segment files that
// neither it nor the live view references are deleted. The ordering
// means a crash anywhere leaves at worst extra garbage files — never a
// referenced frame missing.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("tsdb: checkpoint: no WAL attached (use OpenDurable)")
	}
	if err := db.compactCold(); err != nil {
		return fmt.Errorf("tsdb: checkpoint: cold compaction: %w", err)
	}
	_ = db.lockWrite()
	boundary, err := db.wal.cut()
	v := db.view.Load()
	db.unlockWrite()
	if err != nil {
		return fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	if err := saveViewFile(v, db.shardDuration, snapshotPath(db.wal.dir, boundary), false); err != nil {
		return fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	if err := db.wal.truncateBefore(boundary); err != nil {
		return fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	if db.cold != nil {
		// Under the write lock so no spill can create-and-reference a
		// new segment file between the liveness scan and the deletes.
		_ = db.lockWrite()
		sweepErr := db.cold.sweepOrphans(v, db.view.Load())
		db.unlockWrite()
		if sweepErr != nil {
			return fmt.Errorf("tsdb: checkpoint: cold sweep: %w", sweepErr)
		}
	}
	return nil
}

// WALStats reports write-ahead-log counters; the zero value when the
// DB has no WAL (it was opened with Open, not OpenDurable).
func (db *DB) WALStats() WALStats {
	if db.wal == nil {
		return WALStats{}
	}
	return db.wal.Stats()
}

// CloseWAL syncs and closes the write-ahead log, if any. The DB
// remains readable and writable in memory, but mutations after close
// fail (the durability contract would be silently broken otherwise).
func (db *DB) CloseWAL() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}
