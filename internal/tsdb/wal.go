package tsdb

import (
	"encoding/binary"
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
//	  file header "MWAL" version 2, then one frame per record
//	record: op u8 | op body
//	  opWrite:        points
//	  opDrop:         measurement str
//	  opDeleteBefore: t i64
//	  opBatch:        points | nOps u32, then per op:
//	                  target str | clearStart i64 | clearEnd i64 | points
//	  opClearRange:   measurement str | start i64 | end i64
//	points: nPoints uvarint, then per point:
//	                  series ref | nFields uvarint |
//	                  (field ref, value)* | time delta varint
//	series ref:       uvarint(id<<1), or at the series' first use in
//	                  the segment uvarint(id<<1|1) | measurement str |
//	                  nTags u32 | (k,v str)*
//	field ref:        uvarint(id<<1), or uvarint(id<<1|1) | name str
//
// Names are numbered in order of first use within a segment, and every
// segment — rotated or cut by a checkpoint — starts an empty
// dictionary. Time is the zigzag delta from the previous point of the
// list. Version 1 segments (every name in full, fixed-width counts and
// times) still replay.
//
// Segments are segment.go files: a failed append is cut back off the
// file, and an uncut tear or a failed fsync closes the log. They rotate
// by size; a checkpoint (snapshot + log truncation) cuts a segment
// boundary under the write lock so the deleted prefix is exactly what
// the snapshot covers.

const (
	walMagic   = "MWAL"
	walVersion = 2

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
	Segments       int   `json:"wal_segments"`        // live segment files, including the active one
	Bytes          int64 `json:"wal_bytes"`           // bytes across live segments
	Appends        int64 `json:"wal_appends"`         // records appended since open
	Syncs          int64 `json:"wal_syncs"`           // fsyncs issued
	Rotations      int64 `json:"wal_rotations"`       // segment rotations (including checkpoint cuts)
	Checkpoints    int64 `json:"wal_checkpoints"`     // snapshot+truncate cycles completed
	Replayed       int64 `json:"wal_replayed"`        // records replayed during recovery
	ReplayedPoints int64 `json:"wal_replayed_points"` // points re-applied from those records
	TornFrames     int64 `json:"wal_torn_frames"`     // bad frames found (and truncated) at recovery
	TruncatedBytes int64 `json:"wal_truncated_bytes"` // bytes discarded with the torn tail
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
	dict     walDict   // the active segment's series and field names
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
	w.seg, w.seq, w.dict = seg, seq, walDict{}
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

// append encodes rec through the active segment's dictionary — after
// any rotation, so the record lands in the segment its references
// resolve in — and writes its frame, syncing per policy. A failed write
// leaves no byte of the frame in the log and no name it defined in the
// dictionary; a failure the segment latches refuses every later append.
func (w *WAL) append(rec *walRecord) error {
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
	series, fields := len(w.dict.series.keys), len(w.dict.fields.keys)
	frame := w.dict.encode(rec)
	_, err := sealFrame(frame)
	if err == nil {
		err = w.seg.append(frame)
	}
	if err != nil {
		w.dict.series.truncate(series)
		w.dict.fields.truncate(fields)
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

// walIDs numbers the names one segment defines, in order of first use.
type walIDs struct {
	ids  map[string]uint64 // a series key or field name -> its id
	keys []string          // names by id
}

// ref appends key's reference to b: uvarint(id<<1) when the segment
// already defined it, else uvarint(id<<1|1), with key taking the next
// id, and reports true: the caller appends the definition.
func (t *walIDs) ref(b []byte, key string) ([]byte, bool) {
	if id, ok := t.ids[key]; ok {
		return binary.AppendUvarint(b, id<<1), false
	}
	if t.ids == nil {
		t.ids = make(map[string]uint64)
	}
	id := uint64(len(t.keys))
	t.ids[key] = id
	t.keys = append(t.keys, key)
	return binary.AppendUvarint(b, id<<1|1), true
}

// truncate forgets every name defined after the first n.
func (t *walIDs) truncate(n int) {
	for _, key := range t.keys[n:] {
		delete(t.ids, key)
	}
	t.keys = t.keys[:n]
}

// walDict is the write side of a segment's dictionary: the series and
// field names its records have defined, plus scratch for encoding.
type walDict struct {
	series, fields walIDs
	names          []string // one point's field names, sorted
}

// appendPoints emits a point list, naming each point by the series its
// write resolved (series[i] for points[i]): the series key picks the
// id, and a series' first reference in the segment defines it by its
// measurement and sorted tags. Field names go in sorted order so
// identical batches into identical dictionaries encode identically —
// the property the kill-point tests lean on.
func (d *walDict) appendPoints(b []byte, points []Point, series []*series) []byte {
	b = binary.AppendUvarint(b, uint64(len(points)))
	var prev int64
	for i := range points {
		p, sr := &points[i], series[i]
		var def bool
		if b, def = d.series.ref(b, sr.key); def {
			b = appendTags(appendStr(b, sr.measurement), sr.tags)
		}
		d.names = d.names[:0]
		for name := range p.Fields {
			d.names = append(d.names, name)
		}
		sort.Strings(d.names)
		b = binary.AppendUvarint(b, uint64(len(d.names)))
		for _, name := range d.names {
			if b, def = d.fields.ref(b, name); def {
				b = appendStr(b, name)
			}
			b = appendValue(b, p.Fields[name])
		}
		b = binary.AppendVarint(b, p.Time-prev)
		prev = p.Time
	}
	return b
}

// encode serializes rec behind the header openFrame reserves, naming
// series and fields through d.
func (d *walDict) encode(rec *walRecord) []byte {
	b := openFrame(nil)
	switch rec.op {
	case walOpWrite:
		b = d.appendPoints(append(b, byte(walOpWrite)), rec.points, rec.series)
	case walOpDrop:
		b = appendStr(append(b, byte(walOpDrop)), rec.name)
	case walOpDeleteBefore:
		b = le.AppendUint64(append(b, byte(walOpDeleteBefore)), uint64(rec.before))
	case walOpBatch:
		b = d.appendPoints(append(b, byte(walOpBatch)), rec.points, rec.series)
		b = le.AppendUint32(b, uint32(len(rec.ops)))
		for i := range rec.ops {
			op := &rec.ops[i]
			b = appendStr(b, op.target)
			b = le.AppendUint64(b, uint64(op.clearStart))
			b = le.AppendUint64(b, uint64(op.clearEnd))
			b = d.appendPoints(b, op.points, op.series)
		}
	case walOpClearRange:
		b = appendStr(append(b, byte(walOpClearRange)), rec.name)
		b = le.AppendUint64(le.AppendUint64(b, uint64(rec.start)), uint64(rec.end))
	default:
		panic(fmt.Sprintf("tsdb: wal: encoding unknown op %d", rec.op))
	}
	return b
}

// ---- record decoding ----

// walRecord is one log entry: what a mutation hands WAL.append, and
// what replay decodes.
type walRecord struct {
	op     walOp
	points []Point
	series []*series  // each point's series; written, not decoded
	name   string     // opDrop, opClearRange
	before int64      // opDeleteBefore
	start  int64      // opClearRange
	end    int64      // opClearRange
	ops    []rollupOp // opBatch
}

// walDefs is the read side of a segment's dictionary: the series and
// field names its records have defined so far, by id.
type walDefs struct {
	series []Point // Measurement and Tags only
	fields []string
}

// decodeWALRecord parses a frame's payload; defs is the segment's
// dictionary, nil for a version 1 segment. The decoder bounds-checks
// every length, count and reference and end rejects trailing bytes, so
// a corrupt (but CRC-valid) record is detected and can never drive an
// oversized allocation — the property FuzzWALReplay exercises.
func decodeWALRecord(payload []byte, defs *walDefs) (walRecord, error) {
	d := &decoder{b: payload}
	rec := walRecord{op: walOp(d.u8())}
	switch rec.op {
	case walOpWrite:
		rec.points = defs.decodePoints(d)
	case walOpDrop:
		rec.name = d.str()
	case walOpDeleteBefore:
		rec.before = d.i64()
	case walOpBatch:
		rec.points = defs.decodePoints(d)
		// Each op needs at least target len + two i64 bounds + a point
		// count of at least one byte = 21 bytes.
		n := d.count(21)
		rec.ops = make([]rollupOp, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			ro := rollupOp{target: d.str()}
			ro.clearStart = d.i64()
			ro.clearEnd = d.i64()
			ro.points = defs.decodePoints(d)
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

// ref reads a reference into n defined names: the id, and whether the
// reference defines it, as only the next id may be.
func (d *decoder) ref(n int) (int, bool) {
	v := d.uvarint()
	id, def := v>>1, v&1 == 1
	if def && id != uint64(n) {
		d.failf("definition of id %d where id %d is next", id, n)
	} else if !def && id >= uint64(n) {
		d.failf("reference to undefined id %d", id)
	}
	return int(id), def
}

// decodePoints parses a point list; a nil dictionary reads version 1.
// A point takes at least 3 bytes (series reference, field count, time
// delta) and a field 3 (reference, kind, payload). A point that decodes
// but could not have been written (validated) fails the record like any
// other corruption, so replay only applies what a writer could log.
func (defs *walDefs) decodePoints(d *decoder) []Point {
	if defs == nil {
		return decodePointsV1(d)
	}
	n := d.ucount(3)
	points := make([]Point, 0, n)
	var t int64
	for i := 0; i < n && d.err == nil; i++ {
		id, def := d.ref(len(defs.series))
		if def {
			defs.series = append(defs.series, Point{Measurement: d.str(), Tags: d.tags()})
		}
		if d.err != nil {
			break
		}
		p := defs.series[id]
		nFields := d.ucount(3)
		p.Fields = make(map[string]Value, nFields)
		for j := 0; j < nFields && d.err == nil; j++ {
			id, def := d.ref(len(defs.fields))
			if def {
				defs.fields = append(defs.fields, d.str())
			}
			if d.err == nil {
				p.Fields[defs.fields[id]] = d.value()
			}
		}
		t += d.varint()
		p.Time = t
		points = append(points, validated(d, p))
	}
	return points
}

// decodePointsV1 parses a version 1 point list. A point takes at least
// 20 bytes (measurement length, tag and field counts, time) and a field
// 6 (name length, kind, payload).
func decodePointsV1(d *decoder) []Point {
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
		points = append(points, validated(d, p))
	}
	return points
}

// validated latches p's validate error on d, unless d already failed.
// A name with a line break passes: builds before the rule logged such
// points, and rollup maintenance still logs rows of their series.
func validated(d *decoder, p Point) Point {
	if d.err == nil {
		if err := p.validate(false); err != nil {
			d.failf("%v", err)
		}
	}
	return p
}
