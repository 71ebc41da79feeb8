package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Snapshot format: a length-prefixed binary stream.
//
// The one format (version 3) persists the sealed-block tier verbatim —
// compressed payloads are copied byte-for-byte, never re-encoded — plus
// each column's raw tail and the engine counters, so a restore
// reconstructs the exact view (same blocks, same accounting) without
// replaying writes:
//
//	magic "MTSD" | version u16 = 3 | shardDuration i64
//	epoch i64 | pointsWritten i64 | batchesWritten i64
//	seriesCreated i64 | measurements i64 | writeWaitNs i64
//	blocksSealed i64
//	nShards u32
//	per shard: start i64 | points i64 | bytes i64 | nSeries u32
//	  per series: key | measurement | seriesBytes i64
//	              nTags u32 | (k,v)* | nFields u32
//	    per field: name | nBlocks u32
//	      per block: minT i64 | maxT i64 | count u32 | rawBytes i64
//	                 loc u8
//	        loc 0 (inline): dataLen u32 | data
//	        loc 1 (cold):   fileName str | off i64 | len u32 | crc u32
//	    tail: nSamples u32 | (time i64, value)*
//
// A cold location references the payload inside a cold-tier segment
// file instead of re-serializing it — the already-durable frame is the
// payload's home, so a checkpoint stays O(hot set). Checkpoint
// snapshots therefore restore only next to their cold directory;
// Snapshot/SaveFile (the portable export paths) always inline, reading
// cold payloads back through the tier, so an exported file is
// self-contained. Files of the retired versions 1 and 2 are rejected by
// version number.
//
// Strings are u32 length + bytes. Integers are little-endian. Values
// are a kind byte + payload.

const snapshotMagic = "MTSD"

// snapshotVersion is the format version Snapshot writes and the only
// one RestoreOptions reads.
const snapshotVersion = 3

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
func snapshotView(v *dbView, shardDuration int64, w io.Writer, inlineCold bool) error {
	ew := &errWriter{w: bufio.NewWriter(w)}
	ew.raw(snapshotMagic)
	ew.u16(snapshotVersion)
	ew.i64(shardDuration)
	ew.i64(v.epoch)
	ew.i64(v.stats.PointsWritten)
	ew.i64(v.stats.BatchesWritten)
	ew.i64(v.stats.SeriesCreated)
	ew.i64(int64(v.stats.Measurements))
	ew.i64(v.stats.WriteWaitNs)
	ew.i64(v.stats.BlocksSealed)
	ew.u32(uint32(len(v.shardStarts)))
	for _, start := range v.shardStarts {
		sh := v.shards[start]
		ew.i64(sh.start)
		ew.i64(sh.points)
		ew.i64(sh.bytes)
		keys := make([]string, 0, len(sh.series))
		for k := range sh.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ew.u32(uint32(len(keys)))
		for _, k := range keys {
			sr := sh.series[k]
			ew.str(k)
			ew.str(sr.measurement)
			ew.i64(int64(sr.bytes))
			ew.u32(uint32(len(sr.tags)))
			for _, t := range sr.tags {
				ew.str(t.Key)
				ew.str(t.Value)
			}
			fields := make([]string, 0, len(sr.fields))
			for f := range sr.fields {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			ew.u32(uint32(len(fields)))
			for _, f := range fields {
				col := sr.fields[f]
				ew.str(f)
				ew.u32(uint32(len(col.blocks)))
				for _, blk := range col.blocks {
					ew.i64(blk.minT)
					ew.i64(blk.maxT)
					ew.u32(uint32(blk.count))
					ew.i64(blk.rawBytes)
					if blk.cold != nil && !inlineCold {
						ew.byteVal(blockLocCold)
						ew.str(blk.cold.file)
						ew.i64(blk.cold.off)
						ew.u32(blk.cold.length)
						ew.u32(blk.cold.crc)
						continue
					}
					data, _, err := blk.payloadBytes()
					if err != nil {
						ew.fail(err)
						continue
					}
					ew.byteVal(blockLocInline)
					ew.u32(uint32(len(data)))
					ew.bytes(data)
				}
				ew.u32(uint32(len(col.times)))
				for i := range col.times {
					ew.i64(col.times[i])
					ew.value(col.vals.at(i))
				}
			}
		}
	}
	return ew.flush()
}

// Restore loads a snapshot written by Snapshot into a fresh DB.
func Restore(r io.Reader) (*DB, error) { return RestoreOptions(r, Options{}) }

// RestoreOptions loads a snapshot into a fresh DB configured by opts
// (worker pool, clock, block size, cold directory). The shard duration
// always comes from the snapshot — the stored data was laid out under
// it. A file of any version but snapshotVersion is rejected before its
// body is read.
func RestoreOptions(r io.Reader, opts Options) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("tsdb: restore: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("tsdb: restore: bad magic %q", magic)
	}
	ver, err := readU16(br)
	if err != nil {
		return nil, err
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("tsdb: restore: unsupported snapshot version %d (this build reads version %d)", ver, snapshotVersion)
	}
	sd, err := readI64(br)
	if err != nil {
		return nil, err
	}
	if sd <= 0 {
		return nil, fmt.Errorf("tsdb: restore: bad shard duration %d", sd)
	}
	opts.ShardDuration = sd
	return restoreSealed(br, opts)
}

// maxRestoreCount bounds every count field a snapshot may claim, so a
// corrupt or adversarial header cannot drive a huge allocation before
// the payload disproves it.
const maxRestoreCount = 1 << 28

// restoreSealed rebuilds the exact serialized view: sealed blocks are
// adopted verbatim (after validation), tails and accounting are
// restored directly, and the finished dbView is published in one shot.
// Nothing is re-encoded and no write batches run. Cold references are
// resolved against the DB's cold tier and validated by reading the
// payload through it, so a missing, truncated, or bit-flipped segment
// file fails the restore loudly instead of surfacing as silently
// skipped blocks in later scans.
func restoreSealed(br *bufio.Reader, opts Options) (*DB, error) {
	db := Open(opts)
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("tsdb: restore: "+format, args...)
	}
	var hdr [7]int64
	for i := range hdr {
		v, err := readI64(br)
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	stats := DBStats{
		PointsWritten:  hdr[1],
		BatchesWritten: hdr[2],
		SeriesCreated:  hdr[3],
		Measurements:   int(hdr[4]),
		WriteWaitNs:    hdr[5],
		BlocksSealed:   hdr[6],
	}
	nShards, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nShards > maxRestoreCount {
		return nil, corrupt("shard count %d too large", nShards)
	}
	shards := make(map[int64]*shard)
	var shardStarts []int64
	index := make(map[string]*measurementIndex)
	indexed := make(map[string]bool) // series keys already in postings
	for s := uint32(0); s < nShards; s++ {
		start, err := readI64(br)
		if err != nil {
			return nil, err
		}
		if _, ok := shards[start]; ok {
			return nil, corrupt("duplicate shard %d", start)
		}
		sh := newShard(start, start+db.shardDuration)
		if sh.points, err = readI64(br); err != nil {
			return nil, err
		}
		if sh.bytes, err = readI64(br); err != nil {
			return nil, err
		}
		nSeries, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nSeries > maxRestoreCount {
			return nil, corrupt("series count %d too large", nSeries)
		}
		for i := uint32(0); i < nSeries; i++ {
			if _, err := readStr(br); err != nil { // key, recomputed below
				return nil, err
			}
			measurement, err := readStr(br)
			if err != nil {
				return nil, err
			}
			srBytes, err := readI64(br)
			if err != nil {
				return nil, err
			}
			nTags, err := readU32(br)
			if err != nil {
				return nil, err
			}
			if nTags > maxRestoreCount {
				return nil, corrupt("tag count %d too large", nTags)
			}
			var tags Tags
			for t := uint32(0); t < nTags; t++ {
				k, err := readStr(br)
				if err != nil {
					return nil, err
				}
				v, err := readStr(br)
				if err != nil {
					return nil, err
				}
				tags = append(tags, Tag{k, v})
			}
			tags = tags.Sorted()
			key := seriesKey(measurement, tags)
			sr := &series{measurement: measurement, tags: tags, fields: make(map[string]*column), bytes: int(srBytes)}
			nFields, err := readU32(br)
			if err != nil {
				return nil, err
			}
			if nFields > maxRestoreCount {
				return nil, corrupt("field count %d too large", nFields)
			}
			mi := index[measurement]
			if mi == nil {
				mi = &measurementIndex{
					byTag:  make(map[string]map[string][]string),
					series: make(map[string]Tags),
					fields: make(map[string]ValueKind),
				}
				index[measurement] = mi
			}
			for f := uint32(0); f < nFields; f++ {
				name, err := readStr(br)
				if err != nil {
					return nil, err
				}
				col := &column{}
				var kind ValueKind
				haveKind := false
				nBlocks, err := readU32(br)
				if err != nil {
					return nil, err
				}
				if nBlocks > maxRestoreCount {
					return nil, corrupt("block count %d too large", nBlocks)
				}
				lastMax := int64(math.MinInt64)
				for bi := uint32(0); bi < nBlocks; bi++ {
					blk := &block{}
					if blk.minT, err = readI64(br); err != nil {
						return nil, err
					}
					if blk.maxT, err = readI64(br); err != nil {
						return nil, err
					}
					count, err := readU32(br)
					if err != nil {
						return nil, err
					}
					if count == 0 || count > maxBlockPoints {
						return nil, corrupt("block point count %d out of range", count)
					}
					blk.count = int(count)
					if blk.rawBytes, err = readI64(br); err != nil {
						return nil, err
					}
					loc, err := br.ReadByte()
					if err != nil {
						return nil, err
					}
					switch loc {
					case blockLocInline:
						dataLen, err := readU32(br)
						if err != nil {
							return nil, err
						}
						if dataLen > maxRestoreCount {
							return nil, corrupt("block payload %d too large", dataLen)
						}
						blk.data = make([]byte, dataLen)
						if _, err := io.ReadFull(br, blk.data); err != nil {
							return nil, err
						}
					case blockLocCold:
						if db.cold == nil {
							return nil, corrupt("cold block reference but no cold directory configured (Options.ColdDir)")
						}
						file, err := readStr(br)
						if err != nil {
							return nil, err
						}
						off, err := readI64(br)
						if err != nil {
							return nil, err
						}
						length, err := readU32(br)
						if err != nil {
							return nil, err
						}
						crc, err := readU32(br)
						if err != nil {
							return nil, err
						}
						if length == 0 || length > maxColdFrame || off < coldHeaderSize+coldFrameHeader {
							return nil, corrupt("field %q block %d: bad cold reference", name, bi)
						}
						blk.cold = &coldRef{ct: db.cold, file: file, off: off, length: length, crc: crc}
					default:
						return nil, corrupt("field %q block %d: bad payload location %d", name, bi, loc)
					}
					p, err := blk.validate()
					if err != nil {
						return nil, corrupt("field %q block %d: %v", name, bi, err)
					}
					if bi > 0 && blk.minT < lastMax {
						return nil, corrupt("field %q blocks out of order", name)
					}
					lastMax = blk.maxT
					if !haveKind {
						kind, haveKind = p.vals.at(0).Kind, true
					}
					col.blocks = append(col.blocks, blk)
				}
				nSamples, err := readU32(br)
				if err != nil {
					return nil, err
				}
				if nSamples > maxRestoreCount {
					return nil, corrupt("tail sample count %d too large", nSamples)
				}
				for j := uint32(0); j < nSamples; j++ {
					ts, err := readI64(br)
					if err != nil {
						return nil, err
					}
					v, err := readValue(br)
					if err != nil {
						return nil, err
					}
					if n := len(col.times); (n > 0 && ts < col.times[n-1]) || (n == 0 && ts < lastMax) {
						return nil, corrupt("field %q tail out of order", name)
					}
					col.times = append(col.times, ts)
					col.vals.append(v)
					if !haveKind {
						kind, haveKind = v.Kind, true
					}
				}
				sr.fields[name] = col
				if haveKind {
					if _, seen := mi.fields[name]; !seen {
						mi.fields[name] = kind
					}
				}
			}
			sh.series[key] = sr
			sh.keyBytes += len(key) + 8
			if !indexed[key] {
				indexed[key] = true
				mi.series[key] = tags
				for _, t := range tags {
					vals := mi.byTag[t.Key]
					if vals == nil {
						vals = make(map[string][]string)
						mi.byTag[t.Key] = vals
					}
					vals[t.Value] = append(vals[t.Value], key)
				}
			}
		}
		shards[start] = sh
		shardStarts = append(shardStarts, start)
	}
	sort.Slice(shardStarts, func(i, j int) bool { return shardStarts[i] < shardStarts[j] })
	db.publish(&dbView{
		epoch:       hdr[0],
		stats:       stats,
		shards:      shards,
		shardStarts: shardStarts,
		index:       index,
	})
	return db, nil
}

// errWriter wraps the snapshot's buffered writer with a latching
// error: the first failure is remembered, every later write becomes a
// no-op, and flush surfaces exactly that first error. Serialization
// code stays linear while a full disk (or any failing sink) can no
// longer produce a silently truncated yet "successful" snapshot.
type errWriter struct {
	w   *bufio.Writer
	err error
}

func (ew *errWriter) raw(s string) {
	if ew.err != nil {
		return
	}
	_, ew.err = ew.w.WriteString(s)
}

func (ew *errWriter) bin(v any) {
	if ew.err != nil {
		return
	}
	ew.err = binary.Write(ew.w, binary.LittleEndian, v)
}

// fail latches an externally produced error (e.g. a cold-tier read
// feeding an inline block) into the writer.
func (ew *errWriter) fail(err error) {
	if ew.err == nil {
		ew.err = err
	}
}

func (ew *errWriter) u16(v uint16) { ew.bin(v) }
func (ew *errWriter) u32(v uint32) { ew.bin(v) }
func (ew *errWriter) i64(v int64)  { ew.bin(v) }
func (ew *errWriter) f64(v float64) {
	ew.bin(v)
}

func (ew *errWriter) bytes(p []byte) {
	if ew.err != nil {
		return
	}
	_, ew.err = ew.w.Write(p)
}

func (ew *errWriter) byteVal(b byte) {
	if ew.err != nil {
		return
	}
	ew.err = ew.w.WriteByte(b)
}

func (ew *errWriter) str(s string) {
	ew.u32(uint32(len(s)))
	ew.raw(s)
}

func (ew *errWriter) value(v Value) {
	ew.byteVal(byte(v.Kind))
	switch v.Kind {
	case KindFloat:
		ew.f64(v.F)
	case KindInt:
		ew.i64(v.I)
	case KindString:
		ew.str(v.S)
	case KindBool:
		b := byte(0)
		if v.B {
			b = 1
		}
		ew.byteVal(b)
	}
}

// flush drains the buffer and reports the first error any write hit.
func (ew *errWriter) flush() error {
	if ew.err != nil {
		return ew.err
	}
	return ew.w.Flush()
}

func readU16(r io.Reader) (uint16, error) {
	var v uint16
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readU32(r io.Reader) (uint32, error) {
	var v uint32
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readI64(r io.Reader) (int64, error) {
	var v int64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readF64(r io.Reader) (float64, error) {
	var v float64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readStr(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<28 {
		return "", fmt.Errorf("tsdb: restore: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func readValue(r *bufio.Reader) (Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch ValueKind(kind) {
	case KindFloat:
		f, err := readF64(r)
		return Float(f), err
	case KindInt:
		i, err := readI64(r)
		return Int(i), err
	case KindString:
		s, err := readStr(r)
		return Str(s), err
	case KindBool:
		b, err := r.ReadByte()
		return Bool(b != 0), err
	default:
		return Value{}, fmt.Errorf("tsdb: restore: bad value kind %d", kind)
	}
}
