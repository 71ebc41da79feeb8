package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// Golden bytes: one framed record of every walOp, a whole WAL segment
// written through the DB, a whole cold segment holding one frame, and a
// mixed-kind block payload. The codec may be rearranged freely; what it
// writes may not change, or logs and cold directories in the field stop
// replaying. The version 1 write and batch records and segment were
// captured from the commit before the three codecs were merged
// (c98411a) and are what every build wrote until the WAL took its
// dictionary; this build no longer writes them, and they stay as decode
// fixtures. The drop, deleteBefore and clearRange records hold no point
// list and are the same in both versions.
const (
	goldenWrite = "" +
		"81000000704ef4cb010100000005000000506f77657202000000050000004c61" +
		"62656c090000004e6f6465506f776572060000004e6f64654964020000006e31" +
		"04000000020000004f6e03010300000052617701f9ffffffffffffff07000000" +
		"52656164696e670000000000001871400600000053746174757302020000004f" +
		"4bc08e9d5e00000000"
	goldenDrop         = "0a000000bd2481010205000000506f776572"
	goldenDeleteBefore = "09000000c48ad05b03c08e9d5e00000000"
	goldenBatch        = "" +
		"f1000000aab1be6f040100000005000000506f77657202000000050000004c61" +
		"62656c090000004e6f6465506f776572060000004e6f64654964020000006e31" +
		"04000000020000004f6e03010300000052617701f9ffffffffffffff07000000" +
		"52656164696e670000000000001871400600000053746174757302020000004f" +
		"4bc08e9d5e00000000010000000e000000506f7765725f6d61785f3330307394" +
		"8d9d5e00000000c08e9d5e00000000010000000e000000506f7765725f6d6178" +
		"5f3330307301000000060000004e6f64654964020000006e3101000000070000" +
		"0052656164696e67000000000000807140948d9d5e00000000"
	goldenClearRange = "" +
		"1a00000031f485b30505000000506f7765720000000000000080c08e9d5e0000" +
		"0000"
	goldenWALSegment = "" +
		"4d57414c010081000000704ef4cb010100000005000000506f77657202000000" +
		"050000004c6162656c090000004e6f6465506f776572060000004e6f64654964" +
		"020000006e3104000000020000004f6e03010300000052617701f9ffffffffff" +
		"ffff0700000052656164696e6700000000000018714006000000537461747573" +
		"02020000004f4bc08e9d5e000000000a000000bd2481010205000000506f7765" +
		"72"
	goldenColdSegment = "" +
		"4d434c44010080510100000000001200000000282b3c04010078000040690000" +
		"00000000e4079038"
	goldenMixedBlock = "030314140002020000004f4b0301000000000000001c40"
	// goldenSnapshotSeries is the version 5 series record of
	// snapshotFixture: a cold reference, an inline block and a two-point
	// float tail. The header record is not pinned: it carries
	// WriteWaitNs, a timing.
	goldenSnapshotSeries = "" +
		"c5000000841d760a05000000506f77657201000000060000004e6f6465496402" +
		"0000006e31fa00000000000000010000000700000052656164696e6702000000" +
		"0000000000000000b40000000000000004000000400000000000000001130000" +
		"00636f6c642d302d30303030303030302e736567160000000000000017000000" +
		"ded1d8a7f000000000000000a401000000000000040000004000000000000000" +
		"00150000000401e0037800004018000000000000da0fa83fda170f0000000201" +
		"c007784028000000000000dc0e"

	goldenV2Write = "" +
		"7d000000f8c3a75a01010105000000506f77657202000000050000004c616265" +
		"6c090000004e6f6465506f776572060000004e6f64654964020000006e310401" +
		"020000004f6e0301030300000052617701f9ffffffffffffff05070000005265" +
		"6164696e67000000000000187140070600000053746174757302020000004f4b" +
		"80bbece90b"
	goldenV2Batch = "" +
		"db000000a32025b804010105000000506f77657202000000050000004c616265" +
		"6c090000004e6f6465506f776572060000004e6f64654964020000006e310401" +
		"020000004f6e0301030300000052617701f9ffffffffffffff05070000005265" +
		"6164696e67000000000000187140070600000053746174757302020000004f4b" +
		"80bbece90b010000000e000000506f7765725f6d61785f33303073948d9d5e00" +
		"000000c08e9d5e0000000001030e000000506f7765725f6d61785f3330307301" +
		"000000060000004e6f64654964020000006e310104000000000000807140a8b6" +
		"ece90b"
	goldenV2WALSegment = "" +
		"4d57414c02007d000000f8c3a75a01010105000000506f776572020000000500" +
		"00004c6162656c090000004e6f6465506f776572060000004e6f646549640200" +
		"00006e310401020000004f6e0301030300000052617701f9ffffffffffffff05" +
		"0700000052656164696e67000000000000187140070600000053746174757302" +
		"020000004f4b80bbece90b0a000000bd2481010205000000506f776572"
)

func goldenPoints() []Point {
	return []Point{{
		Measurement: "Power",
		Tags:        Tags{{Key: "Label", Value: "NodePower"}, {Key: "NodeId", Value: "n1"}},
		Fields:      map[string]Value{"Reading": Float(273.5), "Raw": Int(-7), "Status": Str("OK"), "On": Bool(true)},
		Time:        1587384000,
	}}
}

// TestFrameOverLimitRefused: a frame header declaring maxFrame+1 bytes
// is refused by frameLen, readFrame and frameReader before any payload
// is read, and WAL replay keeps the records before it and cuts the log
// there. None of them allocates anything near the declared size.
func TestFrameOverLimitRefused(t *testing.T) {
	header := func(n uint32) []byte {
		b := make([]byte, frameHeader)
		le.PutUint32(b, n)
		return b
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if n, err := frameLen(header(maxFrame)); n != maxFrame || err != nil {
		t.Fatalf("frameLen at the limit = %d, %v", n, err)
	}
	over := header(maxFrame + 1)
	if grew := allocated(func() {
		if _, err := frameLen(over); err == nil {
			t.Error("frameLen accepted maxFrame+1")
		}
		if _, _, err := readFrame(over); err == nil {
			t.Error("readFrame accepted maxFrame+1")
		}
		fr := frameReader{r: io.MultiReader(bytes.NewReader(over), bytes.NewReader(make([]byte, 1<<10)))}
		if _, err := fr.next(); err == nil {
			t.Error("frameReader accepted maxFrame+1")
		}
	}); grew > maxFrame/64 {
		t.Fatalf("refusing the frame allocated %d bytes", grew)
	}

	dir := t.TempDir()
	good := walSeedSegment(&walRecord{op: walOpWrite, points: []Point{walPoint("n1", 60, 1)}})
	seg := append(append(append([]byte(nil), good...), over...), make([]byte, 1<<10)...)
	if err := os.WriteFile(walSegmentPath(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var (
		db   *DB
		info RecoveryInfo
		err  error
	)
	if grew := allocated(func() {
		db, info, err = OpenDurable(Options{}, WALOptions{Dir: dir, Policy: FsyncNever})
	}); grew > maxFrame/64 {
		t.Fatalf("recovery allocated %d bytes", grew)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if info.Records != 1 || info.TornFrames != 1 || info.TruncatedBytes != int64(len(seg)-len(good)) {
		t.Fatalf("recovery = %+v, want the one record before the frame and the rest cut", info)
	}
	if fi, err := os.Stat(walSegmentPath(dir, 1)); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("segment after recovery: %v, %v; want %d bytes", fi, err, len(good))
	}
}

// TestGoldenBytes asserts the WAL records, the WAL and cold segment
// files, the mixed block encoding and the snapshot's series record are
// byte-identical to the pinned ones, that every golden frame decodes
// back to exactly what was encoded, and that a version 1 segment still
// recovers.
func TestGoldenBytes(t *testing.T) {
	sealed := func(rec []byte) string {
		t.Helper()
		if _, err := sealFrame(rec); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(rec)
	}
	decoded := func(frame string, defs *walDefs) walRecord {
		t.Helper()
		b, err := hex.DecodeString(frame)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := readFrame(b)
		if err != nil {
			t.Fatalf("golden frame: %v", err)
		}
		rec, err := decodeWALRecord(payload, defs)
		if err != nil {
			t.Fatalf("golden frame: %v", err)
		}
		return rec
	}
	ops := []rollupOp{{target: "Power_max_300s", clearStart: 1587383700, clearEnd: 1587384000, points: []Point{{
		Measurement: "Power_max_300s",
		Tags:        Tags{{Key: "NodeId", Value: "n1"}},
		Fields:      map[string]Value{"Reading": Float(280)},
		Time:        1587383700,
	}}}}
	for _, c := range []struct {
		rec    walRecord
		v2, v1 string // v1 only where the versions differ
	}{
		{walRecord{op: walOpWrite, points: goldenPoints()}, goldenV2Write, goldenWrite},
		{walRecord{op: walOpDrop, name: "Power"}, goldenDrop, ""},
		{walRecord{op: walOpDeleteBefore, before: 1587384000}, goldenDeleteBefore, ""},
		{walRecord{op: walOpBatch, points: goldenPoints(), ops: ops}, goldenV2Batch, goldenBatch},
		{walRecord{op: walOpClearRange, name: "Power", start: math.MinInt64, end: 1587384000}, goldenClearRange, ""},
	} {
		if got := sealed((&walDict{}).encode(named(&c.rec))); got != c.v2 {
			t.Errorf("walOp %d record changed:\n got %s\nwant %s", c.rec.op, got, c.v2)
		}
		if got := decoded(c.v2, &walDefs{}); !reflect.DeepEqual(got, c.rec) {
			t.Errorf("walOp %d: golden record decodes to %+v, want %+v", c.rec.op, got, c.rec)
		}
		if c.v1 == "" {
			continue
		}
		if got := decoded(c.v1, nil); !reflect.DeepEqual(got, c.rec) {
			t.Errorf("walOp %d: version 1 golden record decodes to %+v, want %+v", c.rec.op, got, c.rec)
		}
	}

	// The same batch and drop through a live DB, and through recovery
	// of the version 1 segment: the whole log, and the log cut before
	// the drop.
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if err := db.WritePoints(goldenPoints()); err != nil {
		t.Fatal(err)
	}
	written := queryAll(t, db, `SELECT "Reading", "Raw", "Status", "On" FROM "Power"`)
	if ok, err := db.DropMeasurement("Power"); !ok || err != nil {
		t.Fatalf("drop: ok=%t err=%v", ok, err)
	}
	seg, err := os.ReadFile(walSegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(seg); got != goldenV2WALSegment {
		t.Errorf("WAL segment changed:\n got %s\nwant %s", got, goldenV2WALSegment)
	}
	v1, err := hex.DecodeString(goldenWALSegment)
	if err != nil {
		t.Fatal(err)
	}
	dropFrame := len(goldenDrop) / 2
	stats := func(db *DB) DBStats {
		st := db.Stats()
		st.WriteWaitNs = 0 // timing, not content
		return st
	}
	for _, c := range []struct {
		seg     []byte
		records int64
		want    *DB
		answer  string
	}{
		{v1, 2, db, ""},
		{v1[:len(v1)-dropFrame], 1, nil, written},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(walSegmentPath(dir, 1), c.seg, 0o644); err != nil {
			t.Fatal(err)
		}
		got, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
		if info.Records != c.records || info.Points != 1 || info.TornFrames != 0 {
			t.Fatalf("version 1 segment recovered %+v, want %d records of one point", info, c.records)
		}
		if c.want != nil && (stats(got) != stats(c.want) || got.Epoch() != c.want.Epoch()) {
			t.Errorf("version 1 segment recovered stats %+v epoch %d, want %+v epoch %d",
				stats(got), got.Epoch(), stats(c.want), c.want.Epoch())
		}
		if c.answer != "" {
			if a := queryAll(t, got, `SELECT "Reading", "Raw", "Status", "On" FROM "Power"`); a != c.answer {
				t.Errorf("version 1 segment answers:\n%s\nwant:\n%s", a, c.answer)
			}
		}
	}

	ct := newColdTier(osFS{}, t.TempDir(), 0)
	blk := sealBlock(timeVec{t: []int64{0, 60, 120, 180}}, vecOf([]Value{Float(200), Float(201), Float(200.5), Float(200.5)}))
	ref, err := ct.appendPayload(86400, blk.data, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.syncAppenders(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(ct.dir, ref.file))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(file); got != goldenColdSegment {
		t.Errorf("cold segment changed:\n got %s\nwant %s", got, goldenColdSegment)
	}
	if ref.file != "cold-86400-00000000.seg" || ref.off != 22 || ref.length != 18 || ref.crc != 1009461248 {
		t.Errorf("cold reference changed: %+v", ref)
	}
	if got, err := ref.read(); err != nil || !bytes.Equal(got, blk.data) {
		t.Errorf("cold frame read back %x, err %v", got, err)
	}

	mixed := sealBlock(timeVec{t: []int64{10, 20, 30}}, vecOf([]Value{Str("OK"), Bool(true), Float(7)}))
	if got := hex.EncodeToString(mixed.data); got != goldenMixedBlock {
		t.Errorf("mixed block changed:\n got %s\nwant %s", got, goldenMixedBlock)
	}

	snap, _ := snapshotFixture(t)
	if got := hex.EncodeToString(snapshotFrame(t, snap, 2)); got != goldenSnapshotSeries {
		t.Errorf("snapshot series record changed:\n got %s\nwant %s", got, goldenSnapshotSeries)
	}
}

// snapshotFrame returns frame i (0 is the header record) of snap.
func snapshotFrame(t testing.TB, snap []byte, i int) []byte {
	t.Helper()
	for pos := fileHeaderSize; pos+frameHeader <= len(snap); i-- {
		end := pos + frameHeader + int(le.Uint32(snap[pos:]))
		if end > len(snap) {
			break
		}
		if i == 0 {
			return snap[pos:end]
		}
		pos = end
	}
	t.Fatal("snapshot frame out of range")
	return nil
}

// snapshotFixture builds the smallest view that exercises every shape a
// series record can hold — a block by cold reference, a block inline
// and a raw tail — and returns its checkpoint-style snapshot (cold
// blocks by reference) with the options that restore it.
func snapshotFixture(t testing.TB) ([]byte, Options) {
	t.Helper()
	opts := Options{ShardDuration: 3600, BlockSize: 4, ColdDir: t.TempDir()}
	db := Open(opts)
	for i := 0; i < 8; i++ {
		if err := db.WritePoint(coldPoint("n1", int64(i*60), float64(i)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.SpillCold(4 * 60); n != 1 || err != nil {
		t.Fatalf("spilled %d blocks, err %v; want the first block only", n, err)
	}
	for i := 8; i < 10; i++ {
		if err := db.WritePoint(coldPoint("n1", int64(i*60), float64(i)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if cs, cold := db.Compression(), db.ColdStats(); cold.BlocksCold != 1 || cold.ResidentBlocks != 1 || cs.TailPoints != 2 {
		t.Fatalf("fixture shape: %+v %+v", cs, cold)
	}
	var buf bytes.Buffer
	if err := snapshotView(db.view.Load(), db.shardDuration, &buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), opts
}

// TestSnapshotCorruptionMatrix is the snapshot's kill-point matrix: the
// intact file restores, and every single-bit flip, every truncation and
// any trailing byte makes RestoreOptions return an error — a damaged
// checkpoint is never an answer.
func TestSnapshotCorruptionMatrix(t *testing.T) {
	snap, opts := snapshotFixture(t)
	db, err := RestoreOptions(bytes.NewReader(snap), opts)
	if err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	if got := queryAll(t, db, `SELECT "Reading" FROM "Power"`); got == "" || db.Disk().Points != 10 {
		t.Fatalf("intact snapshot restored %d points:\n%s", db.Disk().Points, got)
	}
	for off := range snap {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), snap...)
			mut[off] ^= 1 << bit
			if _, err := RestoreOptions(bytes.NewReader(mut), opts); err == nil {
				t.Fatalf("bit %d of byte %d flipped: restore succeeded", bit, off)
			}
		}
		if _, err := RestoreOptions(bytes.NewReader(snap[:off]), opts); err == nil {
			t.Fatalf("truncated at %d of %d bytes: restore succeeded", off, len(snap))
		}
	}
	if _, err := RestoreOptions(bytes.NewReader(append(snap[:len(snap):len(snap)], 0)), opts); err == nil {
		t.Fatal("trailing byte: restore succeeded")
	}
}

// inflateColdRef returns a copy of snap whose first cold reference
// claims length payload bytes, with its frame's checksum re-sealed so
// that only the reference itself is wrong.
func inflateColdRef(t testing.TB, snap []byte, length uint32) []byte {
	t.Helper()
	out := append([]byte(nil), snap...)
	for pos := fileHeaderSize; pos+frameHeader <= len(out); {
		frame := out[pos : pos+frameHeader+int(le.Uint32(out[pos:]))]
		// A reference is the segment name (a u32-prefixed "cold-…"
		// string), then off i64, length u32 and crc u32.
		if i := bytes.Index(frame[frameHeader:], []byte("cold-")); i >= 0 {
			at := frameHeader + i + int(le.Uint32(frame[frameHeader+i-4:])) + 8
			le.PutUint32(frame[at:], length)
			if _, err := sealFrame(frame); err != nil {
				t.Fatal(err)
			}
			return out
		}
		pos += len(frame)
	}
	t.Fatal("snapshot holds no cold reference")
	return nil
}

// withTail returns a copy of snap, whose last record is a one-field
// series ending in the tail payload old, with that payload replaced by
// payload and the record's checksum re-sealed, so that only the tail
// itself is wrong.
func withTail(t testing.TB, snap, old, payload []byte) []byte {
	t.Helper()
	if !bytes.HasSuffix(snap, old) {
		t.Fatal("snapshot does not end in the given tail")
	}
	last := fileHeaderSize
	for pos := last; pos < len(snap); pos += frameHeader + int(le.Uint32(snap[pos:])) {
		last = pos
	}
	out := append([]byte(nil), snap[:len(snap)-len(old)]...)
	le.PutUint32(out[len(out)-4:], uint32(len(payload)))
	out = append(out, payload...)
	if _, err := sealFrame(out[last:]); err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzSnapshotRestore feeds arbitrary bytes to the snapshot reader,
// restoring against a cold directory that holds one real segment so
// inputs naming it reach the cold read path. Invariants: no input
// panics; a failed restore returns no DB; what it allocates is bounded
// by a small multiple of the input however large the counts and
// lengths inside claim to be (the widest legitimate expansion is a
// sealed block decoding to 16 B per payload byte, or a mixed tail's
// 48-byte cells); and a DB that does restore answers queries and
// snapshots again.
func FuzzSnapshotRestore(f *testing.F) {
	withCold, opts := snapshotFixture(f)
	f.Add(withCold)
	// A cold reference claiming 128 MiB of a segment a few dozen bytes
	// long, behind a valid checksum.
	f.Add(inflateColdRef(f, withCold, 128<<20))

	db := Open(Options{ShardDuration: 3600, BlockSize: 4})
	for i := 0; i < 10; i++ {
		if err := db.WritePoint(walPoint("n1", int64(i*60), float64(i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.WritePoint(Point{
		Measurement: "Meta",
		Fields:      map[string]Value{"state": Str("ok"), "up": Bool(true), "jobs": Int(3)},
		Time:        3700,
	}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Truncations: inside the file header, inside the first frame's
	// header, at the first frame boundary, mid-file, one byte short.
	const hdrFrameEnd = fileHeaderSize + frameHeader + 8*8 + 4
	for _, cut := range []int{3, fileHeaderSize + 5, hdrFrameEnd, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// A lying count behind a valid checksum: four billion shards.
	lying := append([]byte(nil), valid[:hdrFrameEnd]...)
	le.PutUint32(lying[hdrFrameEnd-4:], math.MaxUint32)
	if _, err := sealFrame(lying[fileHeaderSize:]); err != nil {
		f.Fatal(err)
	}
	f.Add(lying)
	// A lying frame length: 128 MiB claimed, nothing behind it.
	f.Add(le.AppendUint32(append([]byte(nil), valid[:fileHeaderSize]...), 1<<27))
	// A version-3 header over 0xFF filler, every count four billion.
	f.Add(append(appendFileHeader(nil, snapshotMagic, 3), bytes.Repeat([]byte{0xFF}, 64)...))

	// Version 5 float, int and mixed tails, and the version 4 file of
	// the same data.
	var v5 bytes.Buffer
	if err := v4FixtureDB(f).Snapshot(&v5); err != nil {
		f.Fatal(err)
	}
	f.Add(v5.Bytes())
	f.Add(goldenV4(f))
	// A one-point tail behind a block ending at 180, then the same
	// record with only the tail payload replaced, behind a valid
	// checksum: a tail starting before the block's maxT, a tail out of
	// order, and a tail payload whose count lies.
	one := Open(Options{ShardDuration: 3600, BlockSize: 4})
	for i := 0; i < 5; i++ {
		if err := one.WritePoint(walPoint("n1", int64(i*60), float64(i))); err != nil {
			f.Fatal(err)
		}
	}
	var oneTail bytes.Buffer
	if err := one.Snapshot(&oneTail); err != nil {
		f.Fatal(err)
	}
	tail := appendBlockData(nil, timeVec{t: []int64{240}}, vecOf([]Value{Float(4)}))
	if _, err := RestoreOptions(bytes.NewReader(withTail(f, oneTail.Bytes(), tail, tail)), Options{}); err != nil {
		f.Fatalf("one-point tail: %v", err)
	}
	f.Add(oneTail.Bytes())
	for _, bad := range [][]byte{
		appendBlockData(nil, timeVec{t: []int64{120}}, vecOf([]Value{Float(4)})),
		appendBlockData(nil, timeVec{t: []int64{300, 240}}, vecOf([]Value{Float(4), Float(5)})),
		append([]byte{3}, tail[1:]...),
		append(binary.AppendUvarint(nil, 1<<20), tail[1:]...),
	} {
		mut := withTail(f, oneTail.Bytes(), tail, bad)
		if _, err := RestoreOptions(bytes.NewReader(mut), Options{}); err == nil {
			f.Fatalf("tail payload %x restored", bad)
		}
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := RestoreOptions(bytes.NewReader(data), opts)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > limit {
			t.Fatalf("restoring %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			if db != nil {
				t.Fatalf("failed restore returned a DB: %v", err)
			}
			return
		}
		if _, err := db.Query(`SHOW SERIES`); err != nil {
			t.Fatalf("query after restore: %v", err)
		}
		if err := db.Snapshot(io.Discard); err != nil {
			t.Fatalf("snapshot after restore: %v", err)
		}
	})
}
