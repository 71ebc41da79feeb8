package tsdb

import (
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// FuzzParseQuery feeds arbitrary statements through the full query
// front door — Parse for SELECTs, plus the Query dispatcher so the
// SHOW/DROP parsers and the executor are covered too. The invariant is
// simple: no input may panic, and Parse's (query, error) results must
// be mutually exclusive. Seeds come from the parser test corpus, both
// the statements that must parse and the ones that must not.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		// Valid statements, including the paper's Section III-D shape.
		`SELECT max("Reading") FROM "Power" WHERE "NodeId"='10.101.1.1' AND "Label"='NodePower' AND time >= '2020-04-20T12:00:00Z' AND time < '2020-04-21T12:00:00Z' GROUP BY time(5m)`,
		`SELECT mean(Reading) FROM Thermal WHERE Label='CPU1Temp' GROUP BY time(30s), NodeId LIMIT 10`,
		`SELECT "Reading" FROM "Power"`,
		`SELECT count(f), spread(f), stddev(f), median(f) FROM m GROUP BY time(1h)`,
		`SELECT last(f) FROM m WHERE NodeId =~ /^10\.101\./ GROUP BY time(10m), NodeId`,
		`SELECT f FROM m WHERE time >= 100 AND time < 200`,
		// Metadata and admin statements (handled by Query, not Parse).
		`SHOW MEASUREMENTS`,
		`SHOW SERIES FROM "Power"`,
		`SHOW TAG KEYS FROM m`,
		`SHOW TAG VALUES FROM m WITH KEY = NodeId`,
		`SHOW FIELD KEYS`,
		`DROP MEASUREMENT "Power"`,
		// Statements that must fail to parse.
		``,
		`FROM m`,
		`SELECT FROM m`,
		`SELECT max(f FROM m`,
		`SELECT nosuchagg(f) FROM m`,
		`SELECT f FROM m WHERE k='v`,
		`SELECT f FROM m WHERE time ~ 5`,
		`SELECT f FROM m WHERE time >= 'bogus'`,
		`SELECT mean(f) FROM m GROUP BY time(5q)`,
		`SELECT f FROM m GROUP BY time(5m)`,
		`SELECT f, max(f) FROM m`,
		`SELECT f FROM m WHERE NodeId =~ /[unclosed/`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	db := Open(Options{})
	if err := db.WritePoints([]Point{
		{Measurement: "Power", Tags: NewTags(map[string]string{"NodeId": "10.101.1.1", "Label": "NodePower"}),
			Fields: map[string]Value{"Reading": Float(314)}, Time: time.Unix(150, 0).Unix()},
		{Measurement: "m", Tags: NewTags(map[string]string{"NodeId": "n1"}),
			Fields: map[string]Value{"f": Int(7)}, Time: time.Unix(150, 0).Unix()},
	}); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, stmt string) {
		q, err := Parse(stmt)
		if err == nil && q == nil {
			t.Fatalf("Parse(%q) returned nil query and nil error", stmt)
		}
		if err != nil && q != nil {
			t.Fatalf("Parse(%q) returned both a query and an error: %v", stmt, err)
		}
		// The dispatcher also covers SHOW/DROP parsing and execution.
		// DROP against the shared db is fine: views are immutable and
		// the two seed measurements are re-created per process, so the
		// only invariant that matters here is "no panic, no result
		// alongside an error".
		res, qerr := db.Query(stmt)
		if qerr == nil && res == nil {
			t.Fatalf("Query(%q) returned nil result and nil error", stmt)
		}
		if qerr != nil && res != nil {
			t.Fatalf("Query(%q) returned both a result and an error: %v", stmt, qerr)
		}
	})
}

// FuzzBlockDecode feeds arbitrary bytes to the sealed-block decoder.
// Invariants: no input panics; allocation stays proportional to the
// input (a lying count header must be rejected, not trusted); the
// payload the decode cache keeps (regular times, float32 values where
// they are exact) reads back bit for bit what plain decoding gives; and
// any payload that decodes successfully re-seals into an encoding that
// decodes back to the same column (round-trip stability).
func FuzzBlockDecode(f *testing.F) {
	seed := func(times []int64, vals []Value) {
		f.Add(sealBlock(timeVec{t: times}, vecOf(vals)).data)
	}
	seed([]int64{60}, []Value{Float(314)})
	seed([]int64{0, 60, 120, 180}, []Value{Float(200), Float(201), Float(200.5), Float(200.5)})
	seed([]int64{-120, -120, 0, 1 << 40}, []Value{Int(-5), Int(9000), Int(0), Int(1)})
	seed([]int64{10, 20, 30}, []Value{Str("OK"), Bool(true), Float(7)})
	seed([]int64{0, 60, 120}, []Value{Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(1<<24 + 1)})
	trunc := sealBlock(timeVec{t: []int64{0, 60, 120}}, vecOf([]Value{Float(1), Float(2), Float(3)})).data
	f.Add(trunc[:len(trunc)/2])              // torn payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}) // absurd count
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		times, vals, err := decodeBlockData(data, new(decodeBuf))
		if err != nil {
			return
		}
		if len(times) != vals.len() {
			t.Fatalf("decode returned %d times but %d values", len(times), vals.len())
		}
		// Decoded lengths are bounded by the input: every point costs at
		// least one payload byte, so a tiny input can never produce a
		// huge column.
		if len(times) > len(data) {
			t.Fatalf("%d bytes decoded into %d points", len(data), len(times))
		}
		if len(times) == 0 {
			return
		}
		p, _, err := (&block{data: data}).decode(newDecodeCache(1 << 30))
		if err != nil {
			t.Fatalf("cached decode failed where plain decode did not: %v", err)
		}
		if p.times.len() != len(times) || p.vals.len() != vals.len() {
			t.Fatalf("cached payload has %d times, %d values; plain decode %d", p.times.len(), p.vals.len(), len(times))
		}
		for j := range times {
			if p.times.at(j) != times[j] || !sameValue(p.vals.at(j), vals.at(j)) {
				t.Fatalf("point %d: cached (%d, %+v), plain (%d, %+v)", j, p.times.at(j), p.vals.at(j), times[j], vals.at(j))
			}
		}
		// Re-seal and decode again: the encoder must be able to carry
		// anything the decoder accepts.
		t2, v2, err := decodeBlockData(sealBlock(timeVec{t: times}, vals).data, new(decodeBuf))
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		for i := range times {
			if t2[i] != times[i] {
				t.Fatalf("time %d changed across re-encode: %d -> %d", i, times[i], t2[i])
			}
			if w, g := vals.at(i), v2.at(i); !sameValue(w, g) {
				t.Fatalf("value %d changed across re-encode: %+v -> %+v", i, w, g)
			}
		}
	})
}

// walSeedFrames seals the given records (each encoded behind
// openFrame's reserved header) into a version 2 WAL segment image.
func walSeedFrames(frames ...[]byte) []byte {
	seg := appendFileHeader(nil, walMagic, walVersion)
	for _, frame := range frames {
		if _, err := sealFrame(frame); err != nil {
			panic(err)
		}
		seg = append(seg, frame...)
	}
	return seg
}

// walSeedSegment encodes recs through one dictionary, as the log does
// within a segment, into a well-formed WAL segment image.
func walSeedSegment(recs ...*walRecord) []byte {
	var dict walDict
	frames := make([][]byte, len(recs))
	for i, rec := range recs {
		frames[i] = dict.encode(named(rec))
	}
	return walSeedFrames(frames...)
}

// named returns a copy of a hand-built record whose points carry the
// series a write would resolve for them, which is how the log names
// them.
func named(rec *walRecord) *walRecord {
	resolved := func(points []Point) []*series {
		out := make([]*series, len(points))
		for i, p := range points {
			tags := p.Tags.Sorted()
			out[i] = &series{measurement: p.Measurement, key: seriesKey(p.Measurement, tags), tags: tags}
		}
		return out
	}
	c := *rec
	c.series = resolved(c.points)
	c.ops = slices.Clone(c.ops)
	for i := range c.ops {
		c.ops[i].series = resolved(c.ops[i].points)
	}
	return &c
}

// walDictCorruption is a segment whose second record breaks the
// dictionary the first one started, behind a valid checksum.
type walDictCorruption struct {
	name string
	seg  []byte
	bad  int // the bad frame's size in bytes
}

// walDictCorruptions builds the three ways a record can break its
// segment's dictionary: by referring to a series or a field name no
// earlier record defined — it was encoded against a dictionary out of
// step with the segment — or by defining an id that is already taken.
func walDictCorruptions() []walDictCorruption {
	rec := func(node string, fields ...string) *walRecord {
		p := walPoint(node, 60, 1)
		p.Fields = map[string]Value{}
		for _, f := range fields {
			p.Fields[f] = Float(1)
		}
		return named(&walRecord{op: walOpWrite, points: []Point{p}})
	}
	var other walDict // other series first: n1 is series 1
	other.encode(rec("n2", "Reading"))
	other.encode(rec("n1", "Reading"))
	var otherField walDict // field Status first: Reading is field 1
	otherField.encode(rec("n1", "Status"))
	otherField.encode(rec("n1", "Reading"))
	var fresh walDict
	var out []walDictCorruption
	for _, c := range []struct {
		name string
		bad  []byte
	}{
		{"undefined series", other.encode(rec("n1", "Reading"))},
		{"undefined field", otherField.encode(rec("n1", "Reading"))},
		{"repeated definition", fresh.encode(rec("n1", "Reading"))},
	} {
		var dict walDict
		out = append(out, walDictCorruption{c.name, walSeedFrames(dict.encode(rec("n1", "Reading")), c.bad), len(c.bad)})
	}
	return out
}

// FuzzWALReplay writes arbitrary bytes as a WAL segment and opens the
// directory. The invariant: recovery never panics and never errors on
// corrupt content (a torn or garbage tail is data loss to tolerate,
// not a failure), decoding never allocates beyond a small multiple of
// the input, and the recovered database is fully usable. Seeds cover a
// valid multi-record log of each version, every interesting truncation,
// each way a record can break its segment's dictionary, and plain
// garbage.
func FuzzWALReplay(f *testing.F) {
	write := &walRecord{op: walOpWrite, points: []Point{{
		Measurement: "Power",
		Tags:        Tags{{Key: "NodeId", Value: "n1"}},
		Fields:      map[string]Value{"Reading": Float(42), "Raw": Int(7), "Status": Str("OK"), "On": Bool(true)},
		Time:        60,
	}}}
	drop := &walRecord{op: walOpDrop, name: "Power"}
	del := &walRecord{op: walOpDeleteBefore, before: 120}

	valid := walSeedSegment(write, write, del, drop)
	f.Add(valid)
	f.Add(valid[:0])                                 // empty file
	f.Add(valid[:3])                                 // torn magic
	f.Add(valid[:fileHeaderSize])                    // header only
	f.Add(valid[:fileHeaderSize+3])                  // torn frame header
	f.Add(valid[:fileHeaderSize+frameHeader+5])      // torn payload
	f.Add(walSeedFrames(append(openFrame(nil), 99))) // unknown op, valid CRC
	f.Add(walSeedFrames(openFrame(nil)))             // zero-length record
	f.Add([]byte("MWALxxxx garbage that is not a log at all"))
	huge := walSeedSegment(write)
	le.PutUint32(huge[fileHeaderSize:], 1<<30) // length field lies
	f.Add(huge)
	for _, c := range walDictCorruptions() {
		f.Add(c.seg)
	}
	v1, err := hex.DecodeString(goldenWALSegment)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = decodeSegment(data, func(int, walRecord) error { return nil })
		runtime.ReadMemStats(&after)
		// A decoded point is a map of at most a few hundred bytes for a
		// field of at least three input bytes.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		dir := t.TempDir()
		if err := os.WriteFile(walSegmentPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, info, err := OpenDurable(Options{ShardDuration: 3600}, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("OpenDurable rejected corrupt-but-tolerable input: %v", err)
		}
		if info.TornFrames > 1 {
			t.Fatalf("single segment produced %d torn frames", info.TornFrames)
		}
		// The recovered DB must accept writes and answer queries.
		if err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": Int(1)}, Time: 1}); err != nil {
			t.Fatalf("write after recovery: %v", err)
		}
		if _, err := db.Query(`SELECT "f" FROM "m"`); err != nil {
			t.Fatalf("query after recovery: %v", err)
		}
		if err := db.CloseWAL(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		// A second recovery of the repaired directory is clean.
		_, info2, err := OpenDurable(Options{ShardDuration: 3600}, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if info2.TornFrames != 0 {
			t.Fatalf("recovery did not repair the log: second pass saw %+v", info2)
		}
	})
}
