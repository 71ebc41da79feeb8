package tsdb

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
)

// Snapshot format: a file header, then checksummed frames (codec.go).
//
// The format (version 5) persists the sealed-block tier verbatim —
// compressed payloads are copied byte-for-byte, never re-encoded — plus
// each column's raw tail and the engine counters, so a restore
// reconstructs the exact view (same blocks, same accounting) without
// replaying writes. Every record is one CRC frame, so a damaged byte
// anywhere in the file fails the restore instead of restoring wrong:
//
//	file header "MTSD" version 5
//	header record: shardDuration i64 | epoch i64 | pointsWritten i64 |
//	    batchesWritten i64 | seriesCreated i64 | measurements i64 |
//	    writeWaitNs i64 | blocksSealed i64 | nShards u32
//	per shard, a shard record: start i64 | points i64 | bytes i64 |
//	    nSeries u32
//	  per series, a series record: measurement str | nTags u32 | (k,v)* |
//	      seriesBytes i64 | nFields u32, then per field:
//	    name str | nBlocks u32, then per block:
//	      minT i64 | maxT i64 | count u32 | rawBytes i64 | loc u8
//	        loc 0 (inline): dataLen u32 | data
//	        loc 1 (cold):   fileName str | off i64 | len u32 | crc u32
//	    tail: tailLen u32 | payload (0 = empty tail)
//	end of input
//
// A tail payload is a block payload (block.go), written by the encoder
// that seals blocks and read back by the same bounds-checked decoder.
// Version 4 differs only in the tail, nSamples u32 | (time i64,
// value)*, 17 bytes a float sample; it stays readable, never written,
// because a version 4 checkpoint may be the only copy of the data whose
// log segments it truncated.
//
// A cold location references the payload inside a cold-tier segment
// file instead of re-serializing it — the already-durable frame is the
// payload's home, so a checkpoint stays O(hot set). Checkpoint
// snapshots therefore restore only next to their cold directory;
// Snapshot/SaveFile (the portable export paths) always inline, reading
// cold payloads back through the tier, so an exported file is
// self-contained. Files of the retired versions 1 to 3 are rejected by
// version number.

const snapshotMagic = "MTSD"

// snapshotVersion is the format version Snapshot writes;
// RestoreOptions also reads snapshotVersionV4.
const (
	snapshotVersion   = 5
	snapshotVersionV4 = 4
)

// Block payload locations.
const (
	blockLocInline byte = 0
	blockLocCold   byte = 1
)

// Snapshot serializes the whole database to w. It pins the current
// immutable view, so both concurrent queries and concurrent writes
// proceed unimpeded while the serialization runs.
func (db *DB) Snapshot(w io.Writer) error {
	return snapshotView(db.view.Load(), db.shardDuration, w, true)
}

// snapshotView serializes one pinned view — the same body Snapshot
// uses, shared with Checkpoint, which must serialize the exact view it
// cut the WAL boundary against. inlineCold controls spilled blocks:
// true reads their payloads back and inlines them (portable export);
// false writes file references (checkpoint — the segment bytes are
// already durable and fsynced before any referencing view publishes).
// The first error the sink reports is returned, so a full disk can
// never produce a silently truncated yet "successful" snapshot.
func snapshotView(v *dbView, shardDuration int64, w io.Writer, inlineCold bool) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(appendFileHeader(nil, snapshotMagic, snapshotVersion)); err != nil {
		return err
	}
	// put seals one record, built behind the header openFrame reserved,
	// and writes the frame.
	put := func(rec []byte) error {
		if _, err := sealFrame(rec); err != nil {
			return fmt.Errorf("tsdb: snapshot: %w", err)
		}
		_, err := bw.Write(rec)
		return err
	}
	rec := openFrame(nil)
	rec = le.AppendUint64(rec, uint64(shardDuration))
	rec = le.AppendUint64(rec, uint64(v.epoch))
	rec = le.AppendUint64(rec, uint64(v.stats.PointsWritten))
	rec = le.AppendUint64(rec, uint64(v.stats.BatchesWritten))
	rec = le.AppendUint64(rec, uint64(v.stats.SeriesCreated))
	rec = le.AppendUint64(rec, uint64(v.stats.Measurements))
	rec = le.AppendUint64(rec, uint64(v.stats.WriteWaitNs))
	rec = le.AppendUint64(rec, uint64(v.stats.BlocksSealed))
	rec = le.AppendUint32(rec, uint32(len(v.shardStarts)))
	if err := put(rec); err != nil {
		return err
	}
	for _, start := range v.shardStarts {
		sh := v.shards[start]
		keys := slices.Sorted(maps.Keys(sh.series))
		rec = openFrame(rec[:0])
		rec = le.AppendUint64(rec, uint64(sh.start))
		rec = le.AppendUint64(rec, uint64(sh.points))
		rec = le.AppendUint64(rec, uint64(sh.bytes))
		rec = le.AppendUint32(rec, uint32(len(keys)))
		if err := put(rec); err != nil {
			return err
		}
		for _, k := range keys {
			var err error
			if rec, err = appendSeries(openFrame(rec[:0]), sh.series[k], inlineCold); err != nil {
				return err
			}
			if err := put(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendSeries encodes one series record: identity, accounting, and per
// field the sealed blocks (payload inline or by cold reference) and the
// raw tail. The series key is not written; restore recomputes it from
// measurement and tags.
func appendSeries(rec []byte, sr *series, inlineCold bool) ([]byte, error) {
	rec = appendStr(rec, sr.measurement)
	rec = appendTags(rec, sr.tags)
	rec = le.AppendUint64(rec, uint64(sr.bytes))
	rec = le.AppendUint32(rec, uint32(len(sr.fields)))
	for _, f := range sr.fields {
		col := f.col
		rec = appendStr(rec, f.name)
		rec = le.AppendUint32(rec, uint32(len(col.blocks)))
		for _, blk := range col.blocks {
			rec = le.AppendUint64(rec, uint64(blk.minT))
			rec = le.AppendUint64(rec, uint64(blk.maxT))
			rec = le.AppendUint32(rec, uint32(blk.count))
			rec = le.AppendUint64(rec, uint64(blk.rawBytes))
			if blk.cold != nil && !inlineCold {
				rec = appendStr(append(rec, blockLocCold), blk.cold.file)
				rec = le.AppendUint64(rec, uint64(blk.cold.off))
				rec = le.AppendUint32(rec, blk.cold.length)
				rec = le.AppendUint32(rec, blk.cold.crc)
				continue
			}
			data, _, err := blk.payloadBytes()
			if err != nil {
				return nil, err
			}
			rec = le.AppendUint32(append(rec, blockLocInline), uint32(len(data)))
			rec = append(rec, data...)
		}
		at := len(rec)
		rec = le.AppendUint32(rec, 0)
		if col.times.len() > 0 {
			rec = appendBlockData(rec, col.times, col.vals)
			le.PutUint32(rec[at:], uint32(len(rec)-at-4))
		}
	}
	return rec, nil
}

// Restore loads a snapshot written by Snapshot into a fresh DB.
func Restore(r io.Reader) (*DB, error) { return RestoreOptions(r, Options{}) }

// RestoreOptions loads a snapshot into a fresh DB configured by opts
// (block size, decode cache, cold directory). The shard duration
// always comes from the snapshot — the stored data was laid out under
// it. A file of any version but 4 or 5 is rejected before its body is
// read.
func RestoreOptions(r io.Reader, opts Options) (*DB, error) {
	db, err := restore(bufio.NewReader(r), opts)
	if err != nil {
		return nil, fmt.Errorf("tsdb: restore: %w", err)
	}
	return db, nil
}

// restore rebuilds the exact serialized view, one frame at a time:
// sealed blocks are adopted verbatim (after validation), tails and
// accounting are restored directly, and the finished dbView is
// published in one shot. Nothing is re-encoded and no write batches
// run. The input must end with the last record the header and shard
// records declared.
func restore(br *bufio.Reader, opts Options) (*DB, error) {
	hdr := make([]byte, fileHeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	d := &decoder{b: hdr}
	ver := d.fileHeader(snapshotMagic)
	if err := d.end(); err != nil {
		return nil, err
	}
	if ver != snapshotVersion && ver != snapshotVersionV4 {
		return nil, fmt.Errorf("unsupported snapshot version %d (this build reads versions %d and %d)", ver, snapshotVersionV4, snapshotVersion)
	}
	frames := &frameReader{r: br}
	d, err := frames.next()
	if err != nil {
		return nil, err
	}
	opts.ShardDuration = d.i64()
	epoch := d.i64()
	stats := DBStats{
		PointsWritten:  d.i64(),
		BatchesWritten: d.i64(),
		SeriesCreated:  d.i64(),
		Measurements:   int(d.i64()),
		WriteWaitNs:    d.i64(),
		BlocksSealed:   d.i64(),
	}
	nShards := d.u32()
	if err := d.end(); err != nil {
		return nil, err
	}
	if opts.ShardDuration <= 0 {
		return nil, fmt.Errorf("bad shard duration %d", opts.ShardDuration)
	}
	db := Open(opts)
	// The index is rebuilt through the write path's own insertion, on a
	// batch over the empty view Open published.
	b := newBatch(db.view.Load(), db.shardDuration, db.blockSize)
	shards := make(map[int64]*shard)
	for s := uint32(0); s < nShards; s++ {
		if d, err = frames.next(); err != nil {
			return nil, err
		}
		start := d.i64()
		sh := newShard(start, start+db.shardDuration)
		sh.points = d.i64()
		sh.bytes = d.i64()
		nSeries := d.u32()
		if err := d.end(); err != nil {
			return nil, err
		}
		if _, ok := shards[start]; ok {
			return nil, fmt.Errorf("duplicate shard %d", start)
		}
		for i := uint32(0); i < nSeries; i++ {
			if d, err = frames.next(); err != nil {
				return nil, err
			}
			sr, first := decodeSeries(d, db.cold, ver)
			if err := d.end(); err != nil {
				return nil, err
			}
			mi, tags := b.indexSeries(sr.measurement, sr.tags)
			for name, v := range first {
				mi = b.indexField(sr.measurement, mi, name, v.Kind)
			}
			sr.key, sr.tags = string(b.key), tags
			sh.series[sr.key] = sr
			sh.keyBytes += len(sr.key) + 8
		}
		shards[start] = sh
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("trailing bytes after the last declared record")
	} else if err != io.EOF {
		return nil, err
	}
	// Only the index is taken from the rebuild; counters are the file's.
	db.view.Store(&dbView{
		epoch:       epoch,
		stats:       stats,
		shards:      shards,
		shardStarts: slices.Sorted(maps.Keys(shards)),
		index:       b.v.index,
	})
	return db, nil
}

// decodeSeries reads one series record (its tags as stored; the caller
// canonicalises them and sets the key), and reports each field's first
// stored sample (a field with no samples has none) for the index to
// take the field's kind from. Cold references are resolved against the
// DB's cold tier and validated by reading the payload through it, so a
// missing, truncated, or bit-flipped segment file fails the restore
// loudly instead of surfacing as silently skipped blocks in later
// scans. Errors latch in d; the caller checks d.end.
func decodeSeries(d *decoder, cold *coldTier, ver uint16) (*series, map[string]Value) {
	sr := &series{measurement: d.str(), tags: d.tags()}
	sr.bytes = int(d.i64())
	first := make(map[string]Value)
	// A field is at least a name length, a block count and a tail count.
	for n := d.count(12); n > 0 && d.err == nil; n-- {
		name := d.str()
		col := &column{}
		lastMax := int64(minInt64)
		// A block is at least its 29-byte header and a 5-byte inline
		// payload.
		for bi, nBlocks := 0, d.count(34); bi < nBlocks && d.err == nil; bi++ {
			blk := &block{minT: d.i64(), maxT: d.i64(), count: int(d.u32()), rawBytes: d.i64()}
			if blk.count == 0 || blk.count > maxBlockPoints {
				d.failf("field %q block %d: point count %d out of range", name, bi, blk.count)
			}
			switch loc := d.u8(); loc {
			case blockLocInline:
				// Copied: the frame buffer is reused for the next record.
				blk.data = append([]byte(nil), d.take(int(d.u32()))...)
			case blockLocCold:
				blk.cold = &coldRef{ct: cold, file: d.str(), off: d.i64(), length: d.u32(), crc: d.u32()}
				if cold == nil {
					d.failf("cold block reference but no cold directory configured (Options.ColdDir)")
				} else if blk.cold.length == 0 || blk.cold.length > maxFrame || blk.cold.off < coldHeaderSize+frameHeader {
					d.failf("field %q block %d: bad cold reference", name, bi)
				}
			default:
				d.failf("field %q block %d: bad payload location %d", name, bi, loc)
			}
			if d.err != nil {
				break
			}
			p, err := blk.validate()
			if err != nil {
				d.failf("field %q block %d: %w", name, bi, err)
			} else if bi > 0 && blk.minT < lastMax {
				d.failf("field %q blocks out of order", name)
			} else if bi == 0 {
				first[name] = p.vals.at(0)
			}
			lastMax = blk.maxT
			col.blocks = append(col.blocks, blk)
		}
		if ver == snapshotVersionV4 {
			// A tail sample is a time, a kind byte and at least one byte.
			for n := d.count(10); n > 0 && d.err == nil; n-- {
				col.times.append(d.i64(), 0) // read once, on upgrade: append's own growth
				col.vals.append(d.value())
			}
		} else if data := d.take(int(d.u32())); len(data) > 0 {
			ts, vals, err := decodeBlockData(data, new(decodeBuf))
			if err != nil {
				d.failf("field %q tail: %w", name, err)
			}
			col.times, col.vals = compactTimes(ts), vals
		}
		for i := range col.times.len() {
			ts := col.times.at(i)
			if ts < lastMax {
				d.failf("field %q tail out of order", name)
				break
			}
			lastMax = ts
		}
		if _, ok := first[name]; !ok && col.times.len() > 0 {
			first[name] = col.vals.at(0)
		}
		sr.setField(name, col)
	}
	return sr, first
}
