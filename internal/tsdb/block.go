package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Sealed-block tier: Gorilla-style compression for immutable column
// runs.
//
// A column is hot-tail-plus-sealed-blocks: writes append to the raw
// time/value slices, and whenever the tail reaches Options.BlockSize
// points the write batch seals a full run into an immutable compressed
// block (see column.seal in shard.go). HPC telemetry is overwhelmingly
// monotonic timestamps at a fixed cadence carrying slowly-varying
// floats, which is exactly the shape Gorilla's encodings collapse:
//
//	timestamps  delta-of-delta, zig-zag varint: a fixed cadence makes
//	            every delta-of-delta zero — one byte per point, and
//	            most of that byte's bits are shared with neighbours in
//	            the varint stream
//	floats      XOR against the previous value with leading/trailing-
//	            zero windows: an unchanged reading costs one bit, a
//	            small change only its meaningful mantissa bits
//	ints        delta, zig-zag varint
//	mixed       per-value kind byte + canonical payload (strings,
//	            bools, or columns that changed kind mid-stream)
//
// Block payload layout (everything after the in-memory header):
//
//	uvarint count | u8 venc
//	varint t0 | varint d0 | varint dod*          (count-2 dods)
//	values per venc (see above)
//
// The float bitstream is MSB-first. Each value after the first is:
//
//	'0'                                          identical to previous
//	'1' '0' <meaningful bits>                    reuse previous window
//	'1' '1' <5b leading> <6b sigbits-1> <bits>   new window
//
// Every block additionally carries min/max-time and count in its
// in-memory (and snapshot) header, so scans prune blocks entirely
// outside the query range without touching the payload.

// DefaultBlockSize is the seal threshold in points when
// Options.BlockSize is zero. 1024 points of one-minute telemetry is
// ~17 hours of one series — long enough to amortize per-block headers,
// short enough that header pruning has real granularity inside a
// one-day shard.
const DefaultBlockSize = 1024

// maxBlockPoints bounds the decoded point count a block header may
// claim, independent of the payload-length guard below.
const maxBlockPoints = 1 << 24

// blockHeaderBytes is the accounting cost of one block's header as
// persisted by the snapshot (minT, maxT, count, rawBytes, dataLen); the
// in-memory struct is the same magnitude. Charged into
// CompressionStats.BytesCompressed so the reported ratio is honest.
const blockHeaderBytes = 8 + 8 + 4 + 8 + 4

// Value stream encodings.
const (
	vencFloat byte = 1 // all values KindFloat: XOR bitstream
	vencInt   byte = 2 // all values KindInt: zig-zag delta varints
	vencMixed byte = 3 // per-value kind byte + canonical payload
)

var errBlockCorrupt = errors.New("tsdb: corrupt block")

// block is one sealed, immutable run of a column: count points in
// [minT, maxT], compressed into data. Blocks are shared freely across
// COW views and never mutated after sealBlock returns; the only
// mutable cell is the decode cache, which is set at most to one value
// (identical across racing decoders) through an atomic pointer.
type block struct {
	minT, maxT int64
	count      int
	rawBytes   int64 // canonical encoded size of the sealed samples
	data       []byte

	// cold locates the compressed payload in a cold-tier segment file
	// when data is nil: spilled blocks keep only this header plus the
	// reference, so scan pruning stays in memory while the payload
	// costs one pread on first touch. Exactly one of data/cold is set
	// on a sealed block.
	cold *coldRef

	// cache memoizes the decoded payload: blocks are immutable, so the
	// first scan that touches a block pays the decode and later scans
	// read the cached slices. Resident raw bytes are therefore bounded
	// by what queries actually touch (worst case: the pre-compression
	// engine); cold blocks stay compressed. Dropped with the block by
	// retention/drop sweeps.
	cache atomic.Pointer[blockPayload]
}

// blockPayload is a decoded block: parallel times and values, never
// written after construction. A block at one fixed cadence keeps its
// times in the regular form (see timeVec), and a cached float block
// whose values are all float32-exact keeps them as float32s (see
// valueVec). ref is the CLOCK
// second-chance bit — the only mutable cell, set lock-free by cache
// hits and cleared by the eviction sweep (see cache.go).
type blockPayload struct {
	times timeVec
	vals  valueVec
	ref   atomic.Bool
}

// bytes is what the payload keeps, the decode cache's charge: only
// stored times count, so a numeric point costs 8 B in the block's
// regular prefix and 16 B after it, 4 B less when its float values are
// kept as float32s; a mixed value costs a Value cell plus its string
// bytes.
func (p *blockPayload) bytes() int64 {
	return 8*int64(len(p.times.t)) + p.vals.heapBytes()
}

// overlaps reports whether the block intersects [start, end).
func (b *block) overlaps(start, end int64) bool {
	return b.maxT >= start && b.minT < end
}

// payloadBytes returns the block's compressed payload, reading it
// through the cold tier (one pread + CRC check) when the block has
// been spilled. fromDisk reports which side served it.
func (b *block) payloadBytes() (data []byte, fromDisk bool, err error) {
	if b.data != nil {
		return b.data, false, nil
	}
	if b.cold == nil {
		return nil, false, fmt.Errorf("%w: block has neither payload nor cold reference", errBlockCorrupt)
	}
	data, err = b.cold.read()
	return data, true, err
}

// compressedLen is the compressed payload size regardless of where it
// lives.
func (b *block) compressedLen() int {
	if b.data != nil {
		return len(b.data)
	}
	if b.cold != nil {
		return int(b.cold.length)
	}
	return 0
}

// sealBlock compresses one sorted run of samples into an immutable
// block. times must be non-empty and sorted ascending; the slices are
// only read.
func sealBlock(times timeVec, vals valueVec) *block {
	n := times.len()
	b := &block{minT: times.at(0), maxT: times.at(n - 1), count: n}
	b.rawBytes = 8*int64(n) + vals.encodedSize()
	b.data = appendBlockData(make([]byte, 0, n/4+16), times, vals)
	return b
}

// appendBlockData appends the block payload of one non-empty, sorted
// run to buf: the one encoder behind sealed blocks and the snapshot's
// raw tails, inverted by decodeBlockData.
func appendBlockData(buf []byte, times timeVec, vals valueVec) []byte {
	n := times.len()
	vals = vals.narrowed()
	venc := vencMixed
	switch vals.kind {
	case vecFloat:
		venc = vencFloat
	case vecInt:
		venc = vencInt
	}

	buf = binary.AppendUvarint(buf, uint64(n))
	buf = append(buf, venc)

	// Timestamps: t0, first delta, then delta-of-deltas.
	buf = binary.AppendVarint(buf, times.at(0))
	if n > 1 {
		prevDelta := times.at(1) - times.at(0)
		buf = binary.AppendVarint(buf, prevDelta)
		for i := 2; i < n; i++ {
			d := times.at(i) - times.at(i-1)
			buf = binary.AppendVarint(buf, d-prevDelta)
			prevDelta = d
		}
	}

	switch venc {
	case vencFloat:
		w := bitWriter{buf: buf}
		prev := math.Float64bits(vals.f[0])
		w.writeBits(prev, 64)
		// lead > 64 marks "no window yet": the first changed value
		// always opens one.
		lead, trail := uint(65), uint(65)
		for i := 1; i < n; i++ {
			cur := math.Float64bits(vals.f[i])
			x := cur ^ prev
			prev = cur
			if x == 0 {
				w.writeBits(0, 1)
				continue
			}
			w.writeBits(1, 1)
			l := uint(bits.LeadingZeros64(x))
			if l > 31 {
				l = 31 // 5-bit field
			}
			t := uint(bits.TrailingZeros64(x))
			if l >= lead && t >= trail {
				w.writeBits(0, 1)
				w.writeBits(x>>trail, 64-lead-trail)
				continue
			}
			lead, trail = l, t
			sig := 64 - lead - trail
			w.writeBits(1, 1)
			w.writeBits(uint64(lead), 5)
			w.writeBits(uint64(sig-1), 6)
			w.writeBits(x>>trail, sig)
		}
		buf = w.buf
	case vencInt:
		prev := vals.i[0]
		buf = binary.AppendVarint(buf, prev)
		for i := 1; i < n; i++ {
			buf = binary.AppendVarint(buf, vals.i[i]-prev)
			prev = vals.i[i]
		}
	default:
		for i := range vals.m {
			buf = appendValue(buf, vals.m[i])
		}
	}
	return buf
}

// decode returns the block's samples. A non-nil cache memoizes the
// payload and charges it against the global decode budget (and may
// evict other blocks to admit it). Racing callers may both decode; the
// stores are idempotent (identical content), so last-write-wins is
// harmless. nil decodes without memoizing: maintenance paths (unseal)
// use it, and a payload nothing charged must not stay pinned to a
// block the view keeps. fromDisk reports whether the compressed
// payload came through the cold tier rather than memory (always false
// on a memo hit).
func (b *block) decode(c *decodeCache) (p *blockPayload, fromDisk bool, err error) {
	if p := b.cache.Load(); p != nil {
		if c != nil {
			c.hit(p)
		}
		return p, false, nil
	}
	data, fromDisk, err := b.payloadBytes()
	if err != nil {
		return nil, fromDisk, err
	}
	buf := decodeBufs.Get().(*decodeBuf)
	defer decodeBufs.Put(buf)
	times, vals, err := decodeBlockData(data, buf)
	if err != nil {
		return nil, fromDisk, err
	}
	// buf goes back to the pool: the payload keeps compact forms or copies.
	p = &blockPayload{times: compactTimes(times), vals: compactFloats(vals, c != nil)}
	if c != nil {
		b.cache.Store(p)
		c.admit(b, p)
	}
	return p, fromDisk, nil
}

// decodeBuf lends decodeBlockData its timestamp and float arrays;
// block.decode recycles them, so it allocates only what a payload keeps.
type decodeBuf struct {
	t []int64
	f []float64
}

var decodeBufs = sync.Pool{New: func() any { return new(decodeBuf) }}

// validate fully decodes the block without caching and checks the
// payload against the header: exact count, sorted timestamps, and
// min/max agreeing with the pruning header. Restore runs this on every
// block read from a snapshot so a corrupt or adversarial file fails
// loudly instead of poisoning scans later. The decoded payload is
// returned for callers that need a peek (field-kind recovery) without
// pinning it in the cache.
func (b *block) validate() (*blockPayload, error) {
	data, _, err := b.payloadBytes()
	if err != nil {
		return nil, err
	}
	times, vals, err := decodeBlockData(data, new(decodeBuf))
	if err != nil {
		return nil, err
	}
	if len(times) != b.count {
		return nil, fmt.Errorf("%w: header count %d, payload %d", errBlockCorrupt, b.count, len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			return nil, fmt.Errorf("%w: timestamps out of order", errBlockCorrupt)
		}
	}
	if times[0] != b.minT || times[len(times)-1] != b.maxT {
		return nil, fmt.Errorf("%w: time range header mismatch", errBlockCorrupt)
	}
	return &blockPayload{times: timeVec{t: times}, vals: vals}, nil
}

// decodeBlockData decodes a block payload. It is the pure inverse of
// appendBlockData and must be safe on arbitrary bytes (FuzzBlockDecode):
// every read is bounds-checked and allocations are bounded by the
// input length — each encoded point costs at least one payload byte,
// so a count the payload cannot back is rejected before any
// allocation. Times and floats land in buf's arrays, grown as needed.
func decodeBlockData(data []byte, buf *decodeBuf) ([]int64, valueVec, error) {
	fail := func(format string, args ...any) ([]int64, valueVec, error) {
		return nil, valueVec{}, fmt.Errorf("%w: "+format, append([]any{errBlockCorrupt}, args...)...)
	}
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return fail("bad count")
	}
	if n == 0 || n > maxBlockPoints || n > uint64(len(data)) {
		return fail("count %d out of range for %d payload bytes", n, len(data))
	}
	off := sz
	if off >= len(data) {
		return fail("missing value encoding")
	}
	venc := data[off]
	off++

	count := int(n)
	buf.t = slices.Grow(buf.t[:0], count)[:count]
	times := buf.t
	t0, sz := binary.Varint(data[off:])
	if sz <= 0 {
		return fail("bad t0")
	}
	off += sz
	times[0] = t0
	if count > 1 {
		delta, sz := binary.Varint(data[off:])
		if sz <= 0 {
			return fail("bad first delta")
		}
		off += sz
		times[1] = times[0] + delta
		for i := 2; i < count; i++ {
			dod, sz := binary.Varint(data[off:])
			if sz <= 0 {
				return fail("bad delta-of-delta")
			}
			off += sz
			delta += dod
			times[i] = times[i-1] + delta
		}
	}

	var vals valueVec
	switch venc {
	case vencFloat:
		f := slices.Grow(buf.f[:0], count)[:count]
		buf.f, vals = f, valueVec{kind: vecFloat, f: f}
		r := bitReader{buf: data[off:]}
		prev, err := r.readBits(64)
		if err != nil {
			return nil, valueVec{}, err
		}
		f[0] = math.Float64frombits(prev)
		lead, trail := uint(65), uint(65)
		for i := 1; i < count; i++ {
			ctrl, err := r.readBits(1)
			if err != nil {
				return nil, valueVec{}, err
			}
			if ctrl == 0 {
				f[i] = math.Float64frombits(prev)
				continue
			}
			ctrl, err = r.readBits(1)
			if err != nil {
				return nil, valueVec{}, err
			}
			if ctrl == 1 {
				hdr, err := r.readBits(11)
				if err != nil {
					return nil, valueVec{}, err
				}
				lead = uint(hdr >> 6)
				sig := uint(hdr&0x3f) + 1
				if lead+sig > 64 {
					return fail("float window %d+%d bits", lead, sig)
				}
				trail = 64 - lead - sig
			} else if lead > 64 {
				return fail("window reuse before first window")
			}
			sig := 64 - lead - trail
			mbits, err := r.readBits(sig)
			if err != nil {
				return nil, valueVec{}, err
			}
			prev ^= mbits << trail
			f[i] = math.Float64frombits(prev)
		}
		if rem := r.remainingBytes(); rem > 0 {
			return fail("%d trailing bytes after float stream", rem)
		}
		return times, vals, nil
	case vencInt:
		iv := make([]int64, count)
		vals = valueVec{kind: vecInt, i: iv}
		prev, sz := binary.Varint(data[off:])
		if sz <= 0 {
			return fail("bad first int")
		}
		off += sz
		iv[0] = prev
		for i := 1; i < count; i++ {
			d, sz := binary.Varint(data[off:])
			if sz <= 0 {
				return fail("bad int delta")
			}
			off += sz
			prev += d
			iv[i] = prev
		}
	case vencMixed:
		m := make([]Value, count)
		vals = valueVec{kind: vecMixed, m: m}
		d := &decoder{b: data[off:]}
		for i := 0; i < count && d.err == nil; i++ {
			m[i] = d.value()
		}
		if err := d.end(); err != nil {
			return fail("%v", err)
		}
		off = len(data)
	default:
		return fail("unknown value encoding %d", venc)
	}
	if off != len(data) {
		return fail("%d trailing bytes", len(data)-off)
	}
	return times, vals, nil
}

// bitWriter appends an MSB-first bitstream onto a byte slice.
type bitWriter struct {
	buf  []byte
	free uint // unused low bits in the last byte (0 = byte-aligned)
}

// writeBits appends the n lowest bits of v, most-significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := n
		if take > w.free {
			take = w.free
		}
		chunk := (v >> (n - take)) & (1<<take - 1)
		w.buf[len(w.buf)-1] |= byte(chunk << (w.free - take))
		w.free -= take
		n -= take
	}
}

// bitReader consumes an MSB-first bitstream with bounds checks.
type bitReader struct {
	buf []byte
	pos uint // absolute bit position consumed so far
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	if uint(len(r.buf))*8-r.pos < n {
		return 0, fmt.Errorf("%w: bitstream exhausted", errBlockCorrupt)
	}
	var v uint64
	for n > 0 {
		avail := 8 - r.pos&7
		take := n
		if take > avail {
			take = avail
		}
		chunk := (uint64(r.buf[r.pos>>3]) >> (avail - take)) & (1<<take - 1)
		v = v<<take | chunk
		r.pos += take
		n -= take
	}
	return v, nil
}

// remainingBytes reports how many whole unread bytes follow the
// current (possibly partial) byte — the final byte's padding bits are
// legitimate, full trailing bytes are corruption.
func (r *bitReader) remainingBytes() int {
	consumed := int((r.pos + 7) / 8)
	return len(r.buf) - consumed
}

// columnIterator walks one column's samples inside [start, end) in
// time order: sealed blocks first, then the raw tail. Block headers
// prune the walk — a block entirely outside the range is skipped
// without touching its payload, so an out-of-range scan costs one
// header comparison per skipped block and decodes nothing.
type columnIterator struct {
	col        *column
	start, end int64
	blockIdx   int
	tailDone   bool
}

func newColumnIterator(col *column, start, end int64) columnIterator {
	return columnIterator{col: col, start: start, end: end}
}

// next yields the following non-empty chunk, decoding through st's
// cache and charging pruning and decode work to st's stats. It yields
// nothing more once st is stopped, which it checks before every decode:
// a block that cannot be read back stops st itself.
func (it *columnIterator) next(st *execState) (colChunk, bool) {
	stats := &st.stats
	blocks := it.col.blocks
	for it.blockIdx < len(blocks) {
		blk := blocks[it.blockIdx]
		if blk.minT >= it.end {
			// Blocks are time-ordered: everything from here on starts
			// past the range.
			stats.BlocksSkipped += int64(len(blocks) - it.blockIdx)
			it.blockIdx = len(blocks)
			break
		}
		it.blockIdx++
		if blk.maxT < it.start {
			stats.BlocksSkipped++
			continue
		}
		if st.stopped() {
			return colChunk{}, false
		}
		p, fromDisk, err := blk.decode(st.cache)
		if err != nil {
			st.err = err
			return colChunk{}, false
		}
		stats.BlocksDecoded++
		if fromDisk {
			stats.BlocksFromDisk++
		}
		lo, hi := 0, p.times.len()
		if blk.minT < it.start {
			lo = p.times.search(it.start)
		}
		if blk.maxT >= it.end {
			hi = p.times.search(it.end)
		}
		if lo < hi {
			return colChunk{times: p.times.slice(lo, hi), vals: p.vals.slice(lo, hi)}, true
		}
	}
	if !it.tailDone {
		it.tailDone = true
		lo, hi := it.col.rangeIndexes(it.start, it.end)
		if lo < hi {
			return colChunk{times: it.col.times.slice(lo, hi), vals: it.col.vals.slice(lo, hi)}, true
		}
	}
	return colChunk{}, false
}
