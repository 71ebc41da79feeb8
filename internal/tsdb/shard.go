package tsdb

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// column stores one field of one series as sealed compressed blocks
// plus a raw hot tail of parallel times and values (a timeVec, whose
// on-cadence times cost nothing per point, and a typed vector; see
// vec.go). Writes append to the tail; when it reaches the seal
// threshold the write batch compresses full runs into immutable blocks
// (see batch.finish in view.go and sealBlock in block.go). Published
// columns (reachable from the DB's current view) are always globally
// sorted by time — blocks in order, every tail time at or after the
// last block's maxT — so readers never sort and never observe a
// mid-sort column.
type column struct {
	blocks []*block // sealed, immutable, time-ordered
	times  timeVec  // raw tail
	vals   valueVec
	stamp  uint64 // the batch that made this copy (see batch in view.go)
}

// numPoints is the column's total sample count across sealed blocks
// and the raw tail.
func (c *column) numPoints() int {
	n := c.times.len()
	for _, b := range c.blocks {
		n += b.count
	}
	return n
}

// lastTime reports the column's newest timestamp (tail if non-empty,
// else the last sealed block), with ok=false for an empty column.
func (c *column) lastTime() (int64, bool) {
	if n := c.times.len(); n > 0 {
		return c.times.at(n - 1), true
	}
	if n := len(c.blocks); n > 0 {
		return c.blocks[n-1].maxT, true
	}
	return 0, false
}

// firstTime reports the column's oldest timestamp.
func (c *column) firstTime() (int64, bool) {
	if len(c.blocks) > 0 {
		return c.blocks[0].minT, true
	}
	if c.times.len() > 0 {
		return c.times.at(0), true
	}
	return 0, false
}

// seal compresses full bs-point runs of the tail into immutable
// blocks, leaving the remainder (< bs points) raw, and reports how
// many blocks it sealed. The caller must own the column (batch clone)
// and the tail must be sorted. The surviving tail is rebuilt into
// fresh arrays sized to what it holds, so the sealed run's raw backing
// can be collected once older views retire and no spare room stays
// pinned (later writes grow it by append); its times are recompacted,
// since a cut inside the prefix or the suffix leaves a form
// compactTimes would not. Appending to c.blocks may extend capacity
// shared with a published view, which is safe under the linear-history
// invariant (older views never index past their own length).
func (c *column) seal(bs int) int {
	total := c.times.len()
	if total < bs {
		return 0
	}
	n := 0
	for total-n*bs >= bs {
		lo := n * bs
		c.blocks = append(c.blocks, sealBlock(c.times.slice(lo, lo+bs), c.vals.slice(lo, lo+bs)))
		n++
	}
	restT := c.times.slice(n*bs, total)
	restV := c.vals.slice(n*bs, total)
	restV = restV.narrowed() // a kind switch sealed away leaves a typed tail again
	nv := makeVec(restV.kind, restT.len())
	nv.appendVec(restV)
	c.times, c.vals = compactTimes(restT.appendTo(nil)), nv
	return n
}

// unseal decodes every sealed block back into the raw tail — the slow
// path for out-of-order writes that land before already-sealed data.
// The caller re-sorts afterwards and the next seal re-compresses, so
// correctness never depends on write order, only the rare shuffle pays
// for it. A block that cannot be read back (a missing, truncated or
// corrupt cold segment, a damaged payload) fails the unseal and leaves
// the column as it was: re-sealing without it would drop acknowledged
// points for good.
func (c *column) unseal() error {
	if len(c.blocks) == 0 {
		return nil
	}
	total := c.numPoints()
	nt := make([]int64, 0, total)
	var nv valueVec
	for i, b := range c.blocks {
		p, _, err := b.decode(nil)
		if err != nil {
			return fmt.Errorf("tsdb: unseal block [%d, %d]: %w", b.minT, b.maxT, err)
		}
		if i == 0 {
			nv = makeVec(p.vals.kind, total)
		}
		nt = p.times.appendTo(nt)
		nv.appendVec(p.vals)
	}
	nt = c.times.appendTo(nt)
	nv.appendVec(c.vals)
	c.times, c.vals, c.blocks = compactTimes(nt), nv, nil
	return nil
}

// sortByTime rebuilds the column sorted by time into fresh arrays
// (stable, preserving write order for equal timestamps so later writes
// win under last-value semantics). Fresh arrays matter: the unsorted
// cells may sit in capacity shared with a previously published view,
// and those must never be rewritten in place.
func (c *column) sortByTime() {
	ts := c.times.t // an all-explicit run, as mergeChunks builds, is read in place
	if c.times.n > 0 {
		ts = c.times.appendTo(nil)
	}
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ts[idx[a]] < ts[idx[b]] })
	nt := make([]int64, len(ts))
	nv := makeVec(c.vals.kind, len(ts))
	for i, j := range idx {
		nt[i] = ts[j]
		nv.append(c.vals.at(j))
	}
	c.times, c.vals = compactTimes(nt), nv
}

// rangeIndexes returns the half-open index range [lo, hi) of tail
// samples with start <= time < end. When lo falls in the explicit
// suffix, the upper bound searches only the times from lo on — they are
// sorted, so nothing before lo can reach end; in the prefix it is
// arithmetic.
func (c *column) rangeIndexes(start, end int64) (int, int) {
	lo := c.times.search(start)
	if n := int(c.times.n); lo >= n {
		i, _ := slices.BinarySearch(c.times.t[lo-n:], end)
		return lo, lo + i
	}
	return lo, max(lo, c.times.search(end))
}

// series is all data for one (measurement, tagset) identity within a
// shard.
type series struct {
	measurement string
	key         string // seriesKey(measurement, tags)
	tags        Tags   // sorted
	fields      []fieldCol
	bytes       int    // encoded bytes of all points appended
	stamp       uint64 // the batch that made this copy
}

// fieldCol is one of a series' fields, which are kept sorted by name.
type fieldCol struct {
	name string
	col  *column
}

// clone makes a shallow copy, stamped for the batch that owns it, whose
// field slice is private; the columns themselves stay shared until a
// write touches them.
func (s *series) clone(stamp uint64) *series {
	c := *s
	c.fields = slices.Clone(s.fields)
	c.stamp = stamp
	return &c
}

// fieldIndex reports where name is, or would be inserted, in fields.
func (s *series) fieldIndex(name string) (int, bool) {
	return slices.BinarySearchFunc(s.fields, name, func(f fieldCol, name string) int { return strings.Compare(f.name, name) })
}

// field returns the column stored under name, or nil.
func (s *series) field(name string) *column {
	if i, ok := s.fieldIndex(name); ok {
		return s.fields[i].col
	}
	return nil
}

// setField stores col under name, or removes the field when col is nil.
// The caller must own s.
func (s *series) setField(name string, col *column) {
	i, ok := s.fieldIndex(name)
	switch {
	case ok && col == nil:
		s.fields = slices.Delete(s.fields, i, i+1)
	case ok:
		s.fields[i].col = col
	case col != nil:
		s.fields = slices.Insert(s.fields, i, fieldCol{name, col})
	}
}

func (s *series) points() int {
	max := 0
	for _, f := range s.fields {
		if n := f.col.numPoints(); n > max {
			max = n
		}
	}
	return max
}

// shard holds all series for one time window [start, end).
type shard struct {
	start, end int64 // unix seconds, half-open
	series     map[string]*series
	keyBytes   int // bytes of series keys indexed in this shard
	points     int64
	bytes      int64
	stamp      uint64 // the batch that made this copy
}

func newShard(start, end int64) *shard {
	return &shard{start: start, end: end, series: make(map[string]*series)}
}

// clone makes a shallow copy, stamped for the batch that owns it, whose
// series map is private; the series themselves stay shared until a
// write touches them.
func (sh *shard) clone(stamp uint64) *shard {
	c := *sh
	c.series = maps.Clone(sh.series)
	c.stamp = stamp
	return &c
}

// ShardStats summarizes one shard's contents.
type ShardStats struct {
	Start, End int64
	Series     int
	Points     int64
	Bytes      int64 // data bytes
	IndexBytes int64 // series-key/index bytes
}

func (sh *shard) stats() ShardStats {
	return ShardStats{
		Start:      sh.start,
		End:        sh.end,
		Series:     len(sh.series),
		Points:     sh.points,
		Bytes:      sh.bytes,
		IndexBytes: int64(sh.keyBytes),
	}
}
