package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"monster/internal/clock"
)

// Write-ahead log: the durability layer under the in-memory engine.
//
// Every mutation (write batch, measurement drop, retention sweep) is
// appended to an on-disk segment *before* it is applied to the
// published view, so a crashed process recovers by loading the last
// snapshot and replaying the log (see recover.go). Header, frames and
// field encodings are the shared codec's (codec.go); per-record CRC
// framing means a torn tail is detected and truncated rather than
// misread:
//
//	segment file wal-<seq>.seg:
//	  file header "MWAL" version 1, then one frame per record
//	record: op u8 | op body
//	  opWrite:        points
//	  opDrop:         measurement str
//	  opDeleteBefore: t i64
//	  opBatch:        points | nOps u32, then per op:
//	                  target str | clearStart i64 | clearEnd i64 | points
//	  opClearRange:   measurement str | start i64 | end i64
//	points: nPoints u32, then per point:
//	                  measurement str | nTags u32 | (k,v str)* |
//	                  nFields u32 | (name str, value)* | time i64
//
// Segments are segment.go files: a failed append is cut back off the
// file, and an uncut tear or a failed fsync closes the log. They rotate
// by size; a checkpoint (snapshot + log truncation) cuts a segment
// boundary under the write lock so the deleted prefix is exactly what
// the snapshot covers.

const (
	walMagic   = "MWAL"
	walVersion = 1

	// DefaultWALSegmentSize rotates segments at 4 MiB — small enough
	// that checkpoint truncation reclaims space promptly at the paper's
	// ~10 k points/minute ingest, large enough to keep the directory
	// tidy.
	DefaultWALSegmentSize = 4 << 20
	// DefaultSyncInterval batches fsyncs under FsyncInterval: at most
	// one second of acknowledged points is exposed to a power loss.
	DefaultSyncInterval = time.Second
)

// FsyncPolicy selects when the WAL fsyncs its active segment.
type FsyncPolicy int

// Fsync policies. FsyncInterval is the zero value (the production
// default): appends fsync when SyncInterval has elapsed since the last
// sync, bounding power-loss exposure to one interval. FsyncAlways
// syncs every append (maximum durability, one fsync per write batch);
// FsyncNever leaves flushing to the OS (process crashes lose nothing —
// the page cache survives — but a machine crash may lose the unsynced
// tail).
const (
	FsyncInterval FsyncPolicy = iota
	FsyncAlways
	FsyncNever
)

// String renders the policy the way ParseFsyncPolicy accepts it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return FsyncInterval, fmt.Errorf("tsdb: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// WALOptions configures the write-ahead log under a durable DB.
type WALOptions struct {
	// Dir is the directory holding the segments and the checkpoint
	// snapshot. Required.
	Dir string
	// Policy selects fsync behaviour (FsyncInterval by default).
	Policy FsyncPolicy
	// SyncInterval is the fsync cadence under FsyncInterval. Zero
	// selects DefaultSyncInterval.
	SyncInterval time.Duration
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes. Zero selects DefaultWALSegmentSize.
	SegmentSize int64
	// Clock drives the interval-sync timing; nil means the wall clock.
	// Simulated runs inject clock.Sim so sync points stay deterministic.
	Clock clock.Clock
}

func (o *WALOptions) applyDefaults() {
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultWALSegmentSize
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
}

// WALStats counts log activity since open, plus what recovery found.
type WALStats struct {
	Segments       int   // live segment files, including the active one
	Bytes          int64 // bytes across live segments
	Appends        int64 // records appended since open
	Syncs          int64 // fsyncs issued
	Rotations      int64 // segment rotations (including checkpoint cuts)
	Checkpoints    int64 // snapshot+truncate cycles completed
	Replayed       int64 // records replayed during recovery
	ReplayedPoints int64 // points re-applied from those records
	TornFrames     int64 // bad frames found (and truncated) at recovery
	TruncatedBytes int64 // bytes discarded with the torn tail
}

// WAL is an append-only, CRC-framed, segmented log. It is safe for
// concurrent use, though the DB already serializes appends under its
// write lock.
type WAL struct {
	dir     string
	policy  FsyncPolicy
	syncIvl time.Duration
	segSize int64
	clk     clock.Clock

	mu       sync.Mutex
	seg      *segment  // active segment; nil once closed
	seq      uint64    // active segment sequence number
	sealed   []dirFile // rotated-out live segments, ascending
	lastSync time.Time
	stats    WALStats
}

type walOp byte

const (
	walOpWrite        walOp = 1
	walOpDrop         walOp = 2
	walOpDeleteBefore walOp = 3
	// walOpBatch is a composite record: a raw write batch plus the
	// rollup-tier mutations (clear + rewrite per target) that write-path
	// maintenance derived from it. Logging the derived ops — instead of
	// re-running maintenance at replay — makes recovery deterministic:
	// the tiers come back exactly as acknowledged, never double-applied.
	walOpBatch walOp = 4
	// walOpClearRange removes one measurement's rows in [start, end) —
	// the raw-tier expiry primitive behind DeleteMeasurementBefore.
	walOpClearRange walOp = 5
)

// walNameFormat names log segment seq.
const walNameFormat = "wal-%08d.seg"

// walSeq is the listDir parser for log segment names.
func walSeq(name string) (uint64, bool) { return parseNumbered(walNameFormat, name) }

// openWAL opens the log for appending into a fresh segment numbered
// after every surviving segment (ascending), which recovery has already
// replayed and (if needed) truncated.
func openWAL(opts WALOptions, surviving []dirFile) (*WAL, error) {
	opts.applyDefaults()
	w := &WAL{
		dir:      opts.Dir,
		policy:   opts.Policy,
		syncIvl:  opts.SyncInterval,
		segSize:  opts.SegmentSize,
		clk:      opts.Clock,
		sealed:   surviving,
		lastSync: opts.Clock.Now(),
	}
	next := uint64(1)
	if n := len(surviving); n > 0 {
		next = surviving[n-1].key + 1
	}
	if err := w.newSegmentLocked(next); err != nil {
		return nil, err
	}
	return w, nil
}

// newSegmentLocked creates segment seq and makes it active. Callers
// hold mu (or have exclusive access during open).
func (w *WAL) newSegmentLocked(seq uint64) error {
	seg, err := createSegment(w.dir, fmt.Sprintf(walNameFormat, seq), appendFileHeader(nil, walMagic, walVersion))
	if err != nil {
		return fmt.Errorf("tsdb: wal: %w", err)
	}
	w.seg, w.seq = seg, seq
	return nil
}

// rotateLocked seals the active segment (sync + close) and opens the
// next one; a log that cannot is closed. Callers hold mu.
func (w *WAL) rotateLocked() error {
	seg := w.seg
	if err := seg.sync(); err != nil {
		return fmt.Errorf("tsdb: wal: sync on rotate: %w", err)
	}
	w.stats.Syncs++
	w.seg = nil
	w.sealed = append(w.sealed, dirFile{name: seg.name, path: filepath.Join(w.dir, seg.name), key: w.seq, size: seg.size})
	if err := seg.f.Close(); err != nil {
		return fmt.Errorf("tsdb: wal: close on rotate: %w", err)
	}
	w.stats.Rotations++
	return w.newSegmentLocked(w.seq + 1)
}

// append seals rec — a record encoded behind the header openFrame
// reserved — and writes the frame to the active segment, rotating and
// syncing per policy. A failed write leaves no byte of the frame in the
// log; a failure the segment latches refuses every later append.
func (w *WAL) append(rec []byte) error {
	if _, err := sealFrame(rec); err != nil {
		return fmt.Errorf("tsdb: wal: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return fmt.Errorf("tsdb: wal: closed")
	}
	if w.seg.size >= w.segSize {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if err := w.seg.append(rec); err != nil {
		return fmt.Errorf("tsdb: wal: %w", err)
	}
	w.stats.Appends++
	switch w.policy {
	case FsyncAlways:
		return w.syncLocked()
	case FsyncInterval:
		if now := w.clk.Now(); now.Sub(w.lastSync) >= w.syncIvl {
			return w.syncLocked()
		}
	}
	return nil
}

func (w *WAL) syncLocked() error {
	if err := w.seg.sync(); err != nil {
		return fmt.Errorf("tsdb: wal: %w", err)
	}
	w.stats.Syncs++
	w.lastSync = w.clk.Now()
	return nil
}

// cut rotates to a fresh segment and returns its sequence number: all
// records appended before the cut live in segments numbered strictly
// below the boundary. The DB calls this under its write lock so the
// boundary lines up exactly with a pinned view.
func (w *WAL) cut() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return 0, fmt.Errorf("tsdb: wal: closed")
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// truncateBefore deletes every sealed segment numbered below boundary —
// the records a just-written snapshot now covers — plus any snapshot
// the boundary-stamped one supersedes.
func (w *WAL) truncateBefore(boundary uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.sealed) > 0 && w.sealed[0].key < boundary {
		if err := os.Remove(w.sealed[0].path); err != nil {
			return fmt.Errorf("tsdb: wal: truncate: %w", err)
		}
		w.sealed = w.sealed[1:]
	}
	snaps, err := listDir(w.dir, snapshotBoundary)
	if err != nil {
		return fmt.Errorf("tsdb: wal: truncate: %w", err)
	}
	for _, s := range snaps {
		if s.key >= boundary {
			continue
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("tsdb: wal: truncate: %w", err)
		}
	}
	w.stats.Checkpoints++
	return nil
}

// Close syncs and closes the active segment. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seg := w.seg
	if seg == nil {
		return nil
	}
	w.seg = nil
	if err := seg.sync(); err != nil {
		closeErr := seg.f.Close()
		_ = closeErr // the sync error is the one worth reporting
		return fmt.Errorf("tsdb: wal: close: %w", err)
	}
	w.stats.Syncs++
	if err := seg.f.Close(); err != nil {
		return fmt.Errorf("tsdb: wal: close: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the log counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.Segments = len(w.sealed)
	for _, s := range w.sealed {
		st.Bytes += s.size
	}
	if w.seg != nil {
		st.Segments++
		st.Bytes += w.seg.size
	}
	return st
}

// ---- record encoding ----
//
// Every encoder returns its record behind the header openFrame
// reserves; WAL.append seals and writes it.

// appendPoints emits a length-prefixed point list. Field maps are
// emitted in sorted key order so identical batches encode identically —
// the property the kill-point tests lean on.
func appendPoints(b []byte, points []Point) []byte {
	b = le.AppendUint32(b, uint32(len(points)))
	for i := range points {
		p := &points[i]
		b = appendStr(b, p.Measurement)
		b = appendTags(b, p.Tags)
		names := make([]string, 0, len(p.Fields))
		for name := range p.Fields {
			names = append(names, name)
		}
		sort.Strings(names)
		b = le.AppendUint32(b, uint32(len(names)))
		for _, name := range names {
			b = appendValue(appendStr(b, name), p.Fields[name])
		}
		b = le.AppendUint64(b, uint64(p.Time))
	}
	return b
}

// encodeWriteRecord serializes a validated point batch.
func encodeWriteRecord(points []Point) []byte {
	return appendPoints(append(openFrame(nil), byte(walOpWrite)), points)
}

// encodeBatchRecord serializes a write batch together with the rollup
// ops maintenance derived from it (walOpBatch). A pure maintenance
// advance (RollupAdvance) logs with an empty point list.
func encodeBatchRecord(points []Point, ops []rollupOp) []byte {
	b := appendPoints(append(openFrame(nil), byte(walOpBatch)), points)
	b = le.AppendUint32(b, uint32(len(ops)))
	for i := range ops {
		op := &ops[i]
		b = appendStr(b, op.target)
		b = le.AppendUint64(b, uint64(op.clearStart))
		b = le.AppendUint64(b, uint64(op.clearEnd))
		b = appendPoints(b, op.points)
	}
	return b
}

// encodeClearRangeRecord serializes a measurement range clear
// (walOpClearRange).
func encodeClearRangeRecord(name string, start, end int64) []byte {
	b := appendStr(append(openFrame(nil), byte(walOpClearRange)), name)
	return le.AppendUint64(le.AppendUint64(b, uint64(start)), uint64(end))
}

func encodeDropRecord(name string) []byte {
	return appendStr(append(openFrame(nil), byte(walOpDrop)), name)
}

func encodeDeleteBeforeRecord(t int64) []byte {
	return le.AppendUint64(append(openFrame(nil), byte(walOpDeleteBefore)), uint64(t))
}

// ---- record decoding ----

// walRecord is one decoded log entry.
type walRecord struct {
	op     walOp
	points []Point
	name   string     // opDrop, opClearRange
	before int64      // opDeleteBefore
	start  int64      // opClearRange
	end    int64      // opClearRange
	ops    []rollupOp // opBatch
}

// decodeWALRecord parses a frame's payload. The decoder bounds-checks
// every length and count and end rejects trailing bytes, so a corrupt
// (but CRC-valid) record is detected and can never drive an oversized
// allocation — the property FuzzWALReplay exercises.
func decodeWALRecord(payload []byte) (walRecord, error) {
	d := &decoder{b: payload}
	rec := walRecord{op: walOp(d.u8())}
	switch rec.op {
	case walOpWrite:
		rec.points = decodePoints(d)
	case walOpDrop:
		rec.name = d.str()
	case walOpDeleteBefore:
		rec.before = d.i64()
	case walOpBatch:
		rec.points = decodePoints(d)
		// Each op needs at least target len + two i64 bounds + point
		// count = 24 bytes.
		n := d.count(24)
		rec.ops = make([]rollupOp, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			ro := rollupOp{target: d.str()}
			ro.clearStart = d.i64()
			ro.clearEnd = d.i64()
			ro.points = decodePoints(d)
			rec.ops = append(rec.ops, ro)
		}
	case walOpClearRange:
		rec.name = d.str()
		rec.start = d.i64()
		rec.end = d.i64()
	default:
		d.failf("bad op %d", rec.op)
	}
	if err := d.end(); err != nil {
		return walRecord{}, fmt.Errorf("tsdb: wal: %w", err)
	}
	return rec, nil
}

// decodePoints parses a length-prefixed point list. Minimum sizes per
// element: a point is measurement len + tag count + field count + time
// = 20 bytes, a field a name length, a kind byte and one payload byte. A point that decodes but could not have
// been written (Validate) fails the record like any other corruption,
// so replay only ever applies what a writer was allowed to log.
func decodePoints(d *decoder) []Point {
	n := d.count(20)
	points := make([]Point, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		p := Point{Measurement: d.str(), Tags: d.tags()}
		nFields := d.count(6)
		p.Fields = make(map[string]Value, nFields)
		for j := 0; j < nFields && d.err == nil; j++ {
			name := d.str()
			p.Fields[name] = d.value()
		}
		p.Time = d.i64()
		if d.err == nil {
			if err := p.Validate(); err != nil {
				d.failf("%v", err)
			}
		}
		points = append(points, p)
	}
	return points
}
