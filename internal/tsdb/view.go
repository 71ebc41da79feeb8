package tsdb

import (
	"maps"
	"slices"
	"sort"
)

// ---- snapshot views ----
//
// The DB publishes its entire contents as an immutable dbView behind an
// atomic pointer (see DB in db.go). Every mutation — a write, a drop, a
// range clear, retention, a spill — derives the next view from the
// current one through a batch, the one owner of the cloning policy,
// with copy-on-write at every level it touches. A shard, series or
// column is the batch's own copy when it carries the batch's stamp:
//
//	view        fresh struct every batch (cheap value copy)
//	shards map  cloned only when a shard pointer changes
//	shard       cloned once per batch when first touched
//	series      cloned once per batch when first touched; its fields
//	            are a name-sorted slice, so the clone is one small copy
//	column      struct cloned once per batch; in-order appends land in
//	            spare capacity beyond every published length, so older
//	            views never observe them; out-of-order appends rebuild
//	            the slices into fresh arrays before publication; sealed
//	            blocks are immutable and shared — sealing appends block
//	            pointers and replaces the tail with fresh arrays
//	index       maps cloned only when a new measurement, series, field,
//	            or tag value appears (none do in steady-state ingest)
//
// Readers therefore see a frozen, fully consistent database: a batch is
// visible in its entirety or not at all, and no query, metadata read,
// or snapshot serialization ever blocks behind a write. Mutators are
// serialized by DB.writeMu, which keeps view history linear — the
// invariant that makes extending shared slice capacity safe (only the
// newest view's columns are ever appended to).
type dbView struct {
	// epoch counts the mutations that changed stored data (write
	// batches, drops, retention); QueryStats.SnapshotEpoch and
	// /v1/stats report which view answered.
	epoch int64
	// stamp is the ownership stamp of the batch that derived this view
	// (see batch); the next batch takes stamp+1.
	stamp       uint64
	stats       DBStats
	shards      map[int64]*shard // keyed by start time
	shardStarts []int64          // sorted
	// index: measurement -> tag key -> tag value -> set of series keys
	index map[string]*measurementIndex
	// dropsBlocks marks a candidate whose derivation removed sealed
	// blocks; commit purges them from the decode cache and clears the
	// mark, so no published view carries it.
	dropsBlocks bool
}

// commit is the one path by which a mutation reaches readers. Under
// writeMu it derives the next view from the published one, appends the
// derivation's WAL record (encoded only when a log is attached), folds
// the lock wait into the new view's stats, publishes, and purges the
// decode cache of sealed blocks the derivation dropped. A nil or
// unchanged view logs and publishes nothing, and so does an error from
// the derivation or the log.
func (db *DB) commit(derive func(base *dbView) (next *dbView, rec *walRecord, err error)) error {
	wait := db.lockWrite()
	defer db.unlockWrite()
	base := db.view.Load()
	next, rec, err := derive(base)
	if err != nil || next == nil || next == base {
		return err
	}
	if db.wal != nil && rec != nil {
		if err := db.wal.append(rec); err != nil {
			return err
		}
	}
	next.stats.WriteWaitNs += wait.Nanoseconds()
	purge := next.dropsBlocks
	next.dropsBlocks = false
	db.view.Store(next)
	if purge {
		db.cache.purgeDead(next)
	}
	return nil
}

// shardsOverlapping returns shards intersecting [start, end), in time
// order.
func (v *dbView) shardsOverlapping(start, end int64) []*shard {
	var out []*shard
	for _, s := range v.shardStarts {
		sh := v.shards[s]
		if sh.end <= start || sh.start >= end {
			continue
		}
		out = append(out, sh)
	}
	return out
}

// batch derives one new view from a base view. Ownership is by stamp:
// newBatch takes the next stamp from the base view's linear history,
// and a shard, series or column whose stamp equals it is a copy made
// for this batch, which may be mutated freely until publication. Every
// stamp reachable from a view is at most the view's own, so no
// published object carries a later batch's. The index, cloned only
// when a series or field is new, keeps its copies in freshMI and
// freshTagVals.
type batch struct {
	shardDuration int64
	blockSize     int // seal threshold in points
	v             *dbView

	clonedShardMap bool
	clonedStarts   bool
	clonedIndexMap bool
	owned          []*column // columns this batch created or copied
	freshMI        map[*measurementIndex]bool
	freshTagVals   map[*measurementIndex]map[string]bool
	dirtyCols      map[*column]bool // got an out-of-order append

	// Scratch for resolving one point's series: its tags in canonical
	// order and its series key.
	tags Tags
	key  []byte
}

func newBatch(base *dbView, shardDuration int64, blockSize int) *batch {
	nv := *base // maps and slices stay shared until cloned
	nv.stamp++
	return &batch{
		shardDuration: shardDuration,
		blockSize:     blockSize,
		v:             &nv,
		freshMI:       make(map[*measurementIndex]bool),
		freshTagVals:  make(map[*measurementIndex]map[string]bool),
		dirtyCols:     make(map[*column]bool),
	}
}

// finish sorts any columns that received out-of-order appends, seals
// full block runs, and seals the view. mutated reports whether stored
// data changed (an empty batch still counts as a batch but must not
// advance the epoch). An error (a sealed block an out-of-order write
// needs could not be read back) means the batch must be dropped
// unpublished.
func (b *batch) finish(mutated bool) (*dbView, error) {
	for col := range b.dirtyCols {
		col.sortByTime()
		// If the shuffle reaches behind sealed data, decode everything
		// back to raw and re-sort; the seal pass below re-compresses
		// full runs, so the old blocks leave the view. Out-of-order
		// within the tail alone leaves blocks untouched.
		if n := len(col.blocks); n > 0 && col.times.len() > 0 && col.times.at(0) < col.blocks[n-1].maxT {
			if err := col.unseal(); err != nil {
				return nil, err
			}
			col.sortByTime()
			b.v.dropsBlocks = true
		}
	}
	for _, col := range b.owned {
		b.v.stats.BlocksSealed += int64(col.seal(b.blockSize))
	}
	b.v.stats.BatchesWritten++
	if mutated {
		b.v.epoch++
	}
	return b.v, nil
}

func (b *batch) cloneShardMap() {
	if b.clonedShardMap {
		return
	}
	b.v.shards = maps.Clone(b.v.shards)
	b.clonedShardMap = true
}

func (b *batch) cloneIndexMap() {
	if b.clonedIndexMap {
		return
	}
	b.v.index = maps.Clone(b.v.index)
	b.clonedIndexMap = true
}

// insertShardStart inserts start into the sorted shardStarts slice at
// its position — no full re-sort per new shard.
func (b *batch) insertShardStart(start int64) {
	if !b.clonedStarts {
		b.v.shardStarts = append([]int64(nil), b.v.shardStarts...)
		b.clonedStarts = true
	}
	s := b.v.shardStarts
	i := sort.Search(len(s), func(j int) bool { return s[j] >= start })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = start
	b.v.shardStarts = s
}

// shardFor returns a batch-owned (mutable) shard covering ts.
func (b *batch) shardFor(ts int64) *shard {
	start := ts - mod(ts, b.shardDuration)
	if sh, ok := b.v.shards[start]; ok {
		return b.mutableShard(start, sh)
	}
	sh := newShard(start, start+b.shardDuration)
	sh.stamp = b.v.stamp
	b.cloneShardMap()
	b.v.shards[start] = sh
	b.insertShardStart(start)
	return sh
}

func (b *batch) mutableShard(start int64, sh *shard) *shard {
	if sh.stamp == b.v.stamp {
		return sh
	}
	c := sh.clone(b.v.stamp)
	b.cloneShardMap()
	b.v.shards[start] = c
	return c
}

// mutableSeries returns a batch-owned sr, stored in sh (which must
// already be batch-owned).
func (b *batch) mutableSeries(sh *shard, sr *series) *series {
	if sr.stamp == b.v.stamp {
		return sr
	}
	c := sr.clone(b.v.stamp)
	sh.series[c.key] = c
	return c
}

// mutableColumn returns a batch-owned column for field name of sr
// (which must already be batch-owned), adding the field if sr has none.
func (b *batch) mutableColumn(sr *series, name string) *column {
	i, ok := sr.fieldIndex(name)
	if ok && sr.fields[i].col.stamp == b.v.stamp {
		return sr.fields[i].col
	}
	col := &column{stamp: b.v.stamp}
	if ok {
		old := sr.fields[i].col
		col.blocks, col.times, col.vals = old.blocks, old.times, old.vals
		sr.fields[i].col = col
	} else {
		sr.fields = slices.Insert(sr.fields, i, fieldCol{name, col})
	}
	b.owned = append(b.owned, col)
	return col
}

// mutableMI returns a batch-owned clone of a measurement index. Inner
// byTag value maps stay shared until mutableTagVals touches them.
func (b *batch) mutableMI(name string, mi *measurementIndex) *measurementIndex {
	if b.freshMI[mi] {
		return mi
	}
	c := &measurementIndex{byTag: maps.Clone(mi.byTag), series: maps.Clone(mi.series), fields: maps.Clone(mi.fields)}
	b.cloneIndexMap()
	b.v.index[name] = c
	b.freshMI[c] = true
	return c
}

// mutableTagVals returns a batch-owned tag-value posting map of mi
// (which must already be batch-owned).
func (b *batch) mutableTagVals(mi *measurementIndex, key string) map[string][]string {
	set := b.freshTagVals[mi]
	if set == nil {
		set = make(map[string]bool)
		b.freshTagVals[mi] = set
	}
	if !set[key] {
		vals := make(map[string][]string, len(mi.byTag[key])+1)
		maps.Copy(vals, mi.byTag[key])
		mi.byTag[key] = vals
		set[key] = true
	}
	return mi.byTag[key]
}

// indexSeries resolves a series — its tags in canonical order in
// b.tags, its key in b.key, both valid until the next call — and
// records it and its measurement in the view's index, cloning only
// what it changes. It returns the measurement's index and the index's
// own copy of the sorted tags: a key string and a tag copy are made
// only for a series the view has not seen.
func (b *batch) indexSeries(measurement string, tags Tags) (*measurementIndex, Tags) {
	sorted := tags.sortedInto(&b.tags)
	b.key = appendSeriesKey(b.key[:0], measurement, sorted)
	mi := b.v.index[measurement]
	if mi == nil {
		mi = &measurementIndex{
			byTag:  make(map[string]map[string][]string),
			series: make(map[string]Tags),
			fields: make(map[string]ValueKind),
		}
		b.cloneIndexMap()
		b.v.index[measurement] = mi
		b.freshMI[mi] = true
		b.v.stats.Measurements++
	}
	if tags, ok := mi.series[string(b.key)]; ok {
		return mi, tags
	}
	key, tags := string(b.key), slices.Clone(sorted)
	mi = b.mutableMI(measurement, mi)
	mi.series[key] = tags
	b.v.stats.SeriesCreated++
	for _, t := range tags {
		vals := b.mutableTagVals(mi, t.Key)
		// Appending may write into spare capacity shared with the
		// previous view's slice — safe, because that view's header
		// bounds its readers below the appended cell.
		vals[t.Value] = append(vals[t.Value], key)
	}
	return mi, tags
}

// indexField records field name's kind in mi, measurement's index,
// unless mi has the field already, and returns the batch's mi.
func (b *batch) indexField(measurement string, mi *measurementIndex, name string, kind ValueKind) *measurementIndex {
	if _, seen := mi.fields[name]; !seen {
		mi = b.mutableMI(measurement, mi)
		mi.fields[name] = kind
	}
	return mi
}

// writePoint resolves p's series, appends its samples into
// batch-owned storage, and returns the series.
func (b *batch) writePoint(p *Point) *series {
	mi, tags := b.indexSeries(p.Measurement, p.Tags)
	sh := b.shardFor(p.Time)
	sr := sh.series[string(b.key)]
	if sr != nil {
		sr = b.mutableSeries(sh, sr)
	} else {
		sr = &series{measurement: p.Measurement, key: string(b.key), tags: tags, stamp: b.v.stamp}
		sh.series[sr.key] = sr
		sh.keyBytes += len(sr.key) + 8 // key plus index entry overhead
	}
	sz := 8 // p.EncodedSize(), summed in the one pass over its fields
	for fk, fv := range p.Fields {
		mi = b.indexField(p.Measurement, mi, fk, fv.Kind)
		sz += fieldSize(fk, fv)
		col := b.mutableColumn(sr, fk)
		// A tail append behind the column's newest time (which, for an
		// empty tail, is the last sealed block's maxT) marks the column
		// for the sort/unseal pass in finish.
		if last, ok := col.lastTime(); ok && p.Time < last {
			b.dirtyCols[col] = true
		}
		col.vals.append(fv)
		col.times.append(p.Time, col.vals.cap())
	}
	sr.bytes += sz
	sh.points++
	sh.bytes += int64(sz)
	b.v.stats.PointsWritten++
	return sr
}

// writePointsView derives, copy-on-write, the view that adds points to
// base — the one place a point becomes stored samples, shared by live
// writes, rollup maintenance and WAL replay — and returns each point's
// series, which the WAL names it by. Points must already be validated.
// On error (see batch.finish) nothing may be published.
func (db *DB) writePointsView(base *dbView, points []Point) (*dbView, []*series, error) {
	b := newBatch(base, db.shardDuration, db.blockSize)
	written := make([]*series, len(points))
	for i := range points {
		written[i] = b.writePoint(&points[i])
	}
	v, err := b.finish(len(points) > 0)
	return v, written, err
}

// dropMeasurementView derives a view with measurement name and all its
// stored series removed. A tier's watermark is inferred from its rows,
// so a dropped rollup target reads as empty: the planner answers raw
// and the next source write's maintenance rebuilds the tier from the
// source's first bucket. It returns nil if the measurement does not
// exist in base.
func dropMeasurementView(base *dbView, name string) *dbView {
	mi, ok := base.index[name]
	if !ok {
		return nil
	}
	b := newBatch(base, 0, 0)
	b.cloneIndexMap()
	delete(b.v.index, name)
	for _, start := range base.shardStarts {
		for key := range mi.series {
			sh := b.v.shards[start]
			sr, ok := sh.series[key]
			if !ok {
				continue
			}
			sh = b.mutableShard(start, sh)
			sh.points -= int64(sr.points())
			sh.bytes -= int64(sr.bytes)
			sh.keyBytes -= len(key) + 8
			delete(sh.series, key)
		}
	}
	b.v.stats.Measurements--
	b.v.epoch++
	b.v.dropsBlocks = true
	return b.v
}

// clearColumnRange derives a copy of col with samples in [start, end)
// removed, reporting removed sample count and their value-encoding
// bytes. Returns col itself untouched when nothing overlaps. When
// sealed blocks overlap the range, a copy of the column is unsealed,
// cut and re-sealed at bs (the boundary shard of a raw-tier expiry
// pays one decode+reseal; fully-covered shards never reach here —
// their series are deleted outright). A block that cannot be read back
// fails the clear, as it fails column.unseal.
func clearColumnRange(col *column, start, end int64, bs int) (*column, int, int64, error) {
	first, ok := col.firstTime()
	if !ok {
		return col, 0, 0, nil
	}
	last, _ := col.lastTime()
	if last < start || first >= end {
		return col, 0, 0, nil
	}
	src := col
	if slices.ContainsFunc(col.blocks, func(blk *block) bool { return blk.overlaps(start, end) }) {
		src = &column{blocks: col.blocks, times: col.times, vals: col.vals}
		if err := src.unseal(); err != nil {
			return nil, 0, 0, err
		}
	}
	lo, hi := src.rangeIndexes(start, end)
	if lo == hi {
		return col, 0, 0, nil // header overlap without sample overlap
	}
	n := src.times.len()
	before, after := src.times.slice(0, lo), src.times.slice(hi, n)
	nc := &column{blocks: src.blocks, times: compactTimes(after.appendTo(before.appendTo(nil)))}
	nc.vals = makeVec(src.vals.kind, n-(hi-lo))
	nc.vals.appendVec(src.vals.slice(0, lo))
	nc.vals.appendVec(src.vals.slice(hi, n))
	gone := src.vals.slice(lo, hi)
	if src != col {
		nc.seal(bs)
	}
	return nc, hi - lo, gone.encodedSize(), nil
}

// clearMeasurementRangeView derives a view with measurement name's
// samples in [start, end) removed — the raw-tier expiry and
// rollup-recompute primitive, surgical where DeleteBefore is
// shard-granular. bs is the seal threshold for rebuilt boundary
// columns. It returns a nil view when nothing overlaps; otherwise the
// new view and the number of points removed (series max-across-columns
// semantics, matching shard accounting). An error (clearColumnRange
// could not read a sealed block back) means nothing may be published.
func clearMeasurementRangeView(base *dbView, name string, start, end int64, bs int) (*dbView, int64, error) {
	mi, ok := base.index[name]
	if !ok || start >= end {
		return nil, 0, nil
	}
	b := newBatch(base, 0, 0)
	var removed int64
	for _, shStart := range base.shardStarts {
		baseSh := base.shards[shStart]
		if baseSh.end <= start || baseSh.start >= end {
			continue
		}
		for key := range mi.series {
			sr, ok := baseSh.series[key]
			if !ok {
				continue
			}
			var sh *shard
			var nsr *series
			var valBytes int64
			for _, f := range sr.fields {
				fk, col := f.name, f.col
				nc, n, vb, err := clearColumnRange(col, start, end, bs)
				if err != nil {
					return nil, 0, err
				}
				if nc == col {
					continue
				}
				if nsr == nil {
					sh = b.mutableShard(shStart, b.v.shards[shStart])
					nsr = b.mutableSeries(sh, sr)
				}
				valBytes += vb + int64(n*(2+len(fk)))
				// A rebuilt column is re-sealed into fresh blocks.
				if len(col.blocks) > 0 && (len(nc.blocks) == 0 || nc.blocks[0] != col.blocks[0]) {
					b.v.dropsBlocks = true
				}
				if nc.numPoints() == 0 {
					nc = nil
				}
				nsr.setField(fk, nc)
			}
			if nsr == nil {
				continue
			}
			gone := int64(sr.points() - nsr.points())
			removed += gone
			sh.points -= gone
			// Removed bytes: one 8-byte timestamp per removed point plus
			// each removed sample's field key and value encoding, clamped
			// to what the series is charged with (multi-field points share
			// a timestamp, so this is exact for aligned columns and a safe
			// estimate otherwise).
			goneBytes := min(gone*8+valBytes, int64(nsr.bytes))
			nsr.bytes -= int(goneBytes)
			sh.bytes -= goneBytes
			if len(nsr.fields) == 0 {
				delete(sh.series, key)
				sh.keyBytes -= len(key) + 8
			}
		}
	}
	if !b.clonedShardMap { // no shard was copied, so nothing was cut
		return nil, 0, nil
	}
	b.v.epoch++
	return b.v, removed, nil
}

// deleteBeforeView derives a view with every shard whose window ends
// at or before t removed, reporting how many were dropped. It returns
// (nil, 0) when no shard qualifies.
func deleteBeforeView(base *dbView, t int64) (*dbView, int) {
	b := newBatch(base, 0, 0)
	starts := make([]int64, 0, len(base.shardStarts))
	for _, s := range base.shardStarts {
		if base.shards[s].end > t {
			starts = append(starts, s)
			continue
		}
		b.cloneShardMap()
		delete(b.v.shards, s)
	}
	dropped := len(base.shardStarts) - len(starts)
	if dropped == 0 {
		return nil, 0
	}
	b.v.shardStarts = starts
	b.v.epoch++
	b.v.dropsBlocks = true
	return b.v, dropped
}

// spillBlocksView derives a view with each block in twins replaced by
// its cold (or compaction-relocated) twin: same header and samples,
// payload living in a cold-tier segment file. The epoch does not
// advance — the stored data is unchanged, only its representation
// moved.
func spillBlocksView(base *dbView, twins map[*block]*block) *dbView {
	b := newBatch(base, 0, 0)
	for _, start := range base.shardStarts {
		for key, sr := range base.shards[start].series {
			for i, f := range sr.fields {
				col := f.col
				if !slices.ContainsFunc(col.blocks, func(blk *block) bool { return twins[blk] != nil }) {
					continue
				}
				nb := make([]*block, len(col.blocks))
				for i, blk := range col.blocks {
					if nb[i] = twins[blk]; nb[i] == nil {
						nb[i] = blk
					}
				}
				sh := b.mutableShard(start, b.v.shards[start])
				b.mutableSeries(sh, sh.series[key]).fields[i].col = &column{blocks: nb, times: col.times, vals: col.vals}
			}
		}
	}
	b.v.dropsBlocks = true
	return b.v
}
