package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// On-disk codec: every byte-level decision the durability layer makes.
//
// The write-ahead log (wal.go, recover.go), the checkpoint snapshot
// (snapshot.go) and the cold segments (coldtier.go) are three
// containers built from the same pieces, all little-endian:
//
//	file header  magic [4]byte | version u16
//	frame        payloadLen u32 | crc32-IEEE(payload) u32 | payload
//	payload      fixed-width integers or varints; strings as u32
//	             length + bytes; values as a kind byte + canonical payload
//
// Encoding is append-style onto a byte slice (integers go straight
// through binary.LittleEndian.Append*); a frame is written by reserving
// its eight header bytes, appending the payload behind them and
// patching the header in place, so no record is copied to be framed.
// Decoding goes through one decoder that bounds-checks every read,
// checks every count against the bytes that remain before anything is
// allocated for it, and latches its first error. What the records mean
// — which fields, in which order — stays with the file that owns them;
// DESIGN.md "On-disk formats" lists the record kinds per file.

var le = binary.LittleEndian

const (
	// fileHeaderSize is the magic + version every file opens with.
	fileHeaderSize = 4 + 2
	// frameHeader prefixes every frame: u32 length + u32 crc.
	frameHeader = 4 + 4
	// maxFrame is the one bound on a frame's payload. A paper-scale write
	// batch is ~1 MiB, a sealed block a few KiB and a snapshot record one
	// series of one shard, so a length near 256 MiB is corruption — and
	// no length read from disk can ask for more than this.
	maxFrame = 1 << 28
)

func appendFileHeader(b []byte, magic string, version uint16) []byte {
	return le.AppendUint16(append(b, magic...), version)
}

func appendStr(b []byte, s string) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

func appendTags(b []byte, tags Tags) []byte {
	b = le.AppendUint32(b, uint32(len(tags)))
	for _, t := range tags {
		b = appendStr(appendStr(b, t.Key), t.Value)
	}
	return b
}

// appendValue appends a value in the canonical kind-byte + payload
// encoding (the decoder.value inverse).
func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindFloat:
		b = le.AppendUint64(b, math.Float64bits(v.F))
	case KindInt:
		b = le.AppendUint64(b, uint64(v.I))
	case KindString:
		b = appendStr(b, v.S)
	case KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// openFrame starts a frame at the end of b by reserving its header;
// the caller appends the payload and hands the whole slice to
// sealFrame.
func openFrame(b []byte) []byte {
	return append(b, make([]byte, frameHeader)...)
}

// sealFrame patches the header openFrame reserved at the front of
// frame with the length and CRC of the payload behind it, and returns
// the CRC.
func sealFrame(frame []byte) (uint32, error) {
	payload := frame[frameHeader:]
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("record of %d bytes exceeds the %d-byte frame limit", len(payload), maxFrame)
	}
	crc := crc32.ChecksumIEEE(payload)
	le.PutUint32(frame[0:4], uint32(len(payload)))
	le.PutUint32(frame[4:8], crc)
	return crc, nil
}

// frameLen reads the payload length out of a frame header and applies
// the bound.
func frameLen(b []byte) (int, error) {
	if len(b) < frameHeader {
		return 0, fmt.Errorf("frame header torn after %d bytes", len(b))
	}
	n := le.Uint32(b[0:4])
	if n > maxFrame {
		return 0, fmt.Errorf("frame length %d exceeds the %d-byte limit", n, maxFrame)
	}
	return int(n), nil
}

// readFrame checks the frame at the front of b — header complete,
// length within the bound and within b, checksum matching — and returns
// its payload (aliasing b) and the stored CRC. The frame occupies
// frameHeader+len(payload) bytes of b.
func readFrame(b []byte) (payload []byte, crc uint32, err error) {
	n, err := frameLen(b)
	if err != nil {
		return nil, 0, err
	}
	if n > len(b)-frameHeader {
		return nil, 0, fmt.Errorf("frame of %d bytes torn after %d", n, len(b)-frameHeader)
	}
	payload, crc = b[frameHeader:frameHeader+n], le.Uint32(b[4:8])
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, fmt.Errorf("frame checksum mismatch")
	}
	return payload, crc, nil
}

// frameReader reads consecutive frames off a stream through one reused
// buffer, so a reader holds one record at a time however large the
// file.
type frameReader struct {
	r   io.Reader
	buf bytes.Buffer
}

// next reads and checks the following frame and returns a decoder over
// its payload, valid until the call after. The buffer grows with the
// bytes that arrive, not with the length the header claims. The caller
// asked for a frame, so a stream that ends — even cleanly, between
// frames — is an error like any other.
func (fr *frameReader) next() (*decoder, error) {
	fr.buf.Reset()
	if _, err := io.CopyN(&fr.buf, fr.r, frameHeader); err != nil {
		return nil, fmt.Errorf("reading frame header: %w", err)
	}
	n, err := frameLen(fr.buf.Bytes())
	if err != nil {
		return nil, err
	}
	if _, err := io.CopyN(&fr.buf, fr.r, int64(n)); err != nil {
		return nil, fmt.Errorf("reading frame of %d bytes: %w", n, err)
	}
	payload, _, err := readFrame(fr.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &decoder{b: payload}, nil
}

// decoder reads one record (or file header) out of a byte slice. Every
// read is bounds-checked against the bytes that remain, and the first
// failure latches — the mirror of a sticky-error writer: later reads
// return zero values and consume nothing, so a record decoder reads
// its fields in one straight line and checks once, through end. Loops
// driven by a decoded count stop on err, so a failed record costs no
// further work.
type decoder struct {
	b   []byte // unread remainder
	err error
}

// failf latches a decode error — the codec's own or a record decoder's
// semantic check — unless one is already held.
func (d *decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// take consumes the next n bytes, aliasing the record.
func (d *decoder) take(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.failf("record short: need %d bytes, %d remain", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// fixed is take for the fixed-width readers: on failure it hands them
// zeros, so they decode to the zero value.
func (d *decoder) fixed(n int) []byte {
	if p := d.take(n); p != nil {
		return p
	}
	return make([]byte, n)
}

func (d *decoder) u8() byte    { return d.fixed(1)[0] }
func (d *decoder) u16() uint16 { return le.Uint16(d.fixed(2)) }
func (d *decoder) u32() uint32 { return le.Uint32(d.fixed(4)) }
func (d *decoder) i64() int64  { return int64(le.Uint64(d.fixed(8))) }

func (d *decoder) str() string { return string(d.take(int(d.u32()))) }

// uvarint reads an unsigned varint (binary.AppendUvarint's encoding).
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.failf("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a zigzag varint (binary.AppendVarint's encoding).
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a u32 element count and checks it against the bytes that
// remain — every element takes at least min of them — so the caller
// may allocate for the count it gets back; ucount reads a uvarint one.
func (d *decoder) count(min int) int  { return d.bound(uint64(d.u32()), min) }
func (d *decoder) ucount(min int) int { return d.bound(d.uvarint(), min) }

func (d *decoder) bound(n uint64, min int) int {
	if n > uint64(len(d.b)/min) {
		d.failf("count %d exceeds the %d bytes that remain", n, len(d.b))
		return 0
	}
	return int(n)
}

// tags reads a tag list; a tag is at least its two string lengths.
func (d *decoder) tags() Tags {
	n := d.count(8)
	tags := make(Tags, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		tags = append(tags, Tag{Key: k, Value: d.str()})
	}
	return tags
}

func (d *decoder) value() Value {
	switch kind := ValueKind(d.u8()); kind {
	case KindFloat:
		return Float(math.Float64frombits(uint64(d.i64())))
	case KindInt:
		return Int(d.i64())
	case KindString:
		return Str(d.str())
	case KindBool:
		return Bool(d.u8() != 0)
	default:
		d.failf("bad value kind %d", kind)
		return Value{}
	}
}

// fileHeader consumes a file header and returns its version; any magic
// but the one given is an error.
func (d *decoder) fileHeader(magic string) uint16 {
	if got := d.take(len(magic)); d.err == nil && string(got) != magic {
		d.failf("bad magic %q (want %q)", got, magic)
	}
	return d.u16()
}

// end reports the record's first error; bytes no read consumed are one,
// so any mutation of a valid record is detected.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.failf("%d trailing bytes in record", len(d.b))
	}
	return d.err
}
