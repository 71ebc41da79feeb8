package tsdb

import (
	"fmt"
	"maps"
	"sort"
)

// ---- snapshot views ----
//
// The DB publishes its entire contents as an immutable dbView behind an
// atomic pointer (see DB in db.go). A write batch derives the next view
// from the current one with copy-on-write at every level it touches:
//
//	view        fresh struct every batch (cheap value copy)
//	shards map  cloned only when a shard pointer changes
//	shard       cloned once per batch when first written
//	series      cloned once per batch when first written
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
	epoch       int64
	stats       DBStats
	shards      map[int64]*shard // keyed by start time
	shardStarts []int64          // sorted
	// index: measurement -> tag key -> tag value -> set of series keys
	index map[string]*measurementIndex
	// watermarks holds the rollup watermarks maintenance recorded (see
	// dbView.watermark), staged by withWatermark so a watermark
	// publishes with the rows it covers.
	watermarks map[string]int64
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

// withWatermark derives a view that records wm as target's rollup
// watermark.
func withWatermark(base *dbView, target string, wm int64) *dbView {
	nv := *base
	nv.watermarks = make(map[string]int64, len(base.watermarks)+1)
	maps.Copy(nv.watermarks, base.watermarks)
	nv.watermarks[target] = wm
	return &nv
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

// batch derives one new view from a base view. All clone-tracking sets
// hold the *copies* made for this batch: anything present is owned by
// the batch and may be mutated freely until publication.
type batch struct {
	shardDuration int64
	blockSize     int // seal threshold in points
	v             *dbView

	clonedShardMap bool
	clonedStarts   bool
	clonedIndexMap bool
	freshShards    map[*shard]bool
	freshSeries    map[*series]bool
	freshCols      map[*column]bool
	freshMI        map[*measurementIndex]bool
	freshTagVals   map[*measurementIndex]map[string]bool
	dirtyCols      map[*column]bool // got an out-of-order append
}

func newBatch(base *dbView, shardDuration int64, blockSize int) *batch {
	nv := *base // maps and slices stay shared until cloned
	return &batch{
		shardDuration: shardDuration,
		blockSize:     blockSize,
		v:             &nv,
		freshShards:   make(map[*shard]bool),
		freshSeries:   make(map[*series]bool),
		freshCols:     make(map[*column]bool),
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
		if n := len(col.blocks); n > 0 && len(col.times) > 0 && col.times[0] < col.blocks[n-1].maxT {
			if err := col.unseal(); err != nil {
				return nil, err
			}
			col.sortByTime()
			b.v.dropsBlocks = true
		}
	}
	for col := range b.freshCols {
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
	m := make(map[int64]*shard, len(b.v.shards)+1)
	for k, v := range b.v.shards {
		m[k] = v
	}
	b.v.shards = m
	b.clonedShardMap = true
}

func (b *batch) cloneIndexMap() {
	if b.clonedIndexMap {
		return
	}
	m := make(map[string]*measurementIndex, len(b.v.index)+1)
	for k, v := range b.v.index {
		m[k] = v
	}
	b.v.index = m
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
	b.cloneShardMap()
	b.v.shards[start] = sh
	b.freshShards[sh] = true
	b.insertShardStart(start)
	return sh
}

func (b *batch) mutableShard(start int64, sh *shard) *shard {
	if b.freshShards[sh] {
		return sh
	}
	c := sh.clone()
	b.cloneShardMap()
	b.v.shards[start] = c
	b.freshShards[c] = true
	return c
}

// mutableMI returns a batch-owned clone of a measurement index. Inner
// byTag value maps stay shared until mutableTagVals touches them.
func (b *batch) mutableMI(name string, mi *measurementIndex) *measurementIndex {
	if b.freshMI[mi] {
		return mi
	}
	c := &measurementIndex{
		byTag:  make(map[string]map[string][]string, len(mi.byTag)),
		series: make(map[string]Tags, len(mi.series)+1),
		fields: make(map[string]ValueKind, len(mi.fields)+1),
	}
	for k, v := range mi.byTag {
		c.byTag[k] = v
	}
	for k, v := range mi.series {
		c.series[k] = v
	}
	for k, v := range mi.fields {
		c.fields[k] = v
	}
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
	vals := mi.byTag[key]
	if vals == nil {
		vals = make(map[string][]string)
		mi.byTag[key] = vals
		set[key] = true
		return vals
	}
	if set[key] {
		return vals
	}
	c := make(map[string][]string, len(vals)+1)
	for k, v := range vals {
		c[k] = v
	}
	mi.byTag[key] = c
	set[key] = true
	return c
}

// indexSeries records a point's measurement, series, and field metadata
// in the view's index, cloning only what it changes.
func (b *batch) indexSeries(p *Point, key string, sorted Tags) {
	mi := b.v.index[p.Measurement]
	if mi == nil {
		mi = &measurementIndex{
			byTag:  make(map[string]map[string][]string),
			series: make(map[string]Tags),
			fields: make(map[string]ValueKind),
		}
		b.cloneIndexMap()
		b.v.index[p.Measurement] = mi
		b.freshMI[mi] = true
		b.v.stats.Measurements++
	}
	for fk, fv := range p.Fields {
		if _, seen := mi.fields[fk]; !seen {
			mi = b.mutableMI(p.Measurement, mi)
			mi.fields[fk] = fv.Kind
		}
	}
	if _, ok := mi.series[key]; ok {
		return
	}
	mi = b.mutableMI(p.Measurement, mi)
	mi.series[key] = sorted
	b.v.stats.SeriesCreated++
	for _, t := range sorted {
		vals := b.mutableTagVals(mi, t.Key)
		// Appending may write into spare capacity shared with the
		// previous view's slice — safe, because that view's header
		// bounds its readers below the appended cell.
		vals[t.Value] = append(vals[t.Value], key)
	}
}

// writePoint appends one point's samples into batch-owned storage.
func (b *batch) writePoint(p *Point, key string, sorted Tags) {
	sh := b.shardFor(p.Time)
	sr, ok := sh.series[key]
	switch {
	case !ok:
		sr = &series{measurement: p.Measurement, tags: sorted, fields: make(map[string]*column)}
		sh.series[key] = sr
		sh.keyBytes += len(key) + 8 // key plus index entry overhead
		b.freshSeries[sr] = true
	case !b.freshSeries[sr]:
		c := sr.clone()
		sh.series[key] = c
		b.freshSeries[c] = true
		sr = c
	}
	for fk, fv := range p.Fields {
		col := sr.fields[fk]
		switch {
		case col == nil:
			col = &column{}
			sr.fields[fk] = col
			b.freshCols[col] = true
		case !b.freshCols[col]:
			c := &column{blocks: col.blocks, times: col.times, vals: col.vals}
			sr.fields[fk] = c
			b.freshCols[c] = true
			col = c
		}
		// A tail append behind the column's newest time (which, for an
		// empty tail, is the last sealed block's maxT) marks the column
		// for the sort/unseal pass in finish.
		if last, ok := col.lastTime(); ok && p.Time < last {
			b.dirtyCols[col] = true
		}
		col.times = append(col.times, p.Time)
		col.vals.append(fv)
	}
	sz := p.EncodedSize()
	sr.bytes += sz
	sh.points++
	sh.bytes += int64(sz)
	b.v.stats.PointsWritten++
}

// writePointsView derives, copy-on-write, the view that adds points to
// base — the one place a point becomes stored samples, shared by live
// writes, rollup maintenance and WAL replay. Points must already be
// validated. On error (see batch.finish) nothing may be published.
func (db *DB) writePointsView(base *dbView, points []Point) (*dbView, error) {
	b := newBatch(base, db.shardDuration, db.blockSize)
	for i := range points {
		p := &points[i]
		sorted := p.Tags.Sorted()
		key := seriesKey(p.Measurement, sorted)
		b.indexSeries(p, key, sorted)
		b.writePoint(p, key, sorted)
	}
	return b.finish(len(points) > 0)
}

// dropMeasurementView derives, copy-on-write, a view with measurement
// name and all its stored series removed. It returns nil if the
// measurement does not exist in base.
func dropMeasurementView(base *dbView, name string) *dbView {
	mi, ok := base.index[name]
	if !ok {
		return nil
	}
	nv := *base
	nv.index = make(map[string]*measurementIndex, len(base.index))
	for k, v := range base.index {
		if k != name {
			nv.index[k] = v
		}
	}
	// Clone only shards that actually hold series of this measurement.
	cloned := make(map[int64]*shard)
	for key := range mi.series {
		for _, start := range nv.shardStarts {
			sh := cloned[start]
			if sh == nil {
				sh = nv.shards[start]
			}
			sr, ok := sh.series[key]
			if !ok {
				continue
			}
			if cloned[start] == nil {
				sh = sh.clone()
				cloned[start] = sh
			}
			sh.points -= int64(sr.points())
			sh.bytes -= int64(sr.bytes)
			sh.keyBytes -= len(key) + 8
			delete(sh.series, key)
		}
	}
	if len(cloned) > 0 {
		m := make(map[int64]*shard, len(nv.shards))
		for k, v := range nv.shards {
			m[k] = v
		}
		for k, v := range cloned {
			m[k] = v
		}
		nv.shards = m
	}
	nv.stats.Measurements--
	nv.epoch++
	nv.dropsBlocks = true
	return &nv
}

// clearColumnRange derives a copy of col with samples in [start, end)
// removed, reporting removed sample count and their value-encoding
// bytes. Returns col itself untouched when nothing overlaps. When
// sealed blocks overlap the range, the whole column is rebuilt raw and
// re-sealed at bs (the boundary shard of a raw-tier expiry pays one
// decode+reseal; fully-covered shards never reach here — their series
// are deleted outright). A block that cannot be read back fails the
// clear: re-sealing without it would drop acknowledged points for good
// (the same rule as column.unseal).
func clearColumnRange(col *column, start, end int64, bs int) (*column, int, int64, error) {
	first, ok := col.firstTime()
	if !ok {
		return col, 0, 0, nil
	}
	last, _ := col.lastTime()
	if last < start || first >= end {
		return col, 0, 0, nil
	}
	blocksHit := false
	for _, blk := range col.blocks {
		if blk.overlaps(start, end) {
			blocksHit = true
			break
		}
	}
	if !blocksHit {
		lo, hi := col.rangeIndexes(start, end)
		if lo == hi {
			return col, 0, 0, nil
		}
		keep := len(col.times) - (hi - lo)
		nc := &column{blocks: col.blocks}
		nc.times = make([]int64, 0, keep)
		nc.times = append(append(nc.times, col.times[:lo]...), col.times[hi:]...)
		nc.vals = makeVec(col.vals.kind, keep)
		nc.vals.appendVec(col.vals.slice(0, lo))
		nc.vals.appendVec(col.vals.slice(hi, len(col.times)))
		gone := col.vals.slice(lo, hi)
		return nc, hi - lo, gone.encodedSize(), nil
	}
	nc := &column{times: make([]int64, 0, col.numPoints())}
	var bytes int64
	removed := 0
	keep := func(times []int64, vals *valueVec) {
		for i := range times {
			v := vals.at(i)
			if times[i] >= start && times[i] < end {
				removed++
				bytes += int64(v.EncodedSize())
				continue
			}
			nc.times = append(nc.times, times[i])
			nc.vals.append(v)
		}
	}
	for _, blk := range col.blocks {
		p, _, err := blk.decode(nil)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("tsdb: clear range: block [%d, %d]: %w", blk.minT, blk.maxT, err)
		}
		keep(p.times, &p.vals)
	}
	keep(col.times, &col.vals)
	if removed == 0 {
		// Header overlap without sample overlap: keep the original
		// column (and its decode caches) untouched.
		return col, 0, 0, nil
	}
	nc.seal(bs)
	return nc, removed, bytes, nil
}

// clearMeasurementRangeView derives, copy-on-write, a view with
// measurement name's samples in [start, end) removed — the raw-tier
// expiry and rollup-recompute primitive, surgical where DeleteBefore
// is shard-granular. bs is the seal threshold for rebuilt boundary
// columns. It returns a nil view when nothing overlaps; otherwise the
// new view and the number of points removed (series max-across-columns
// semantics, matching shard accounting). An error (clearColumnRange
// could not read a sealed block back) means nothing may be published.
func clearMeasurementRangeView(base *dbView, name string, start, end int64, bs int) (*dbView, int64, error) {
	mi, ok := base.index[name]
	if !ok || start >= end {
		return nil, 0, nil
	}
	var removed int64
	dropped := false
	cloned := make(map[int64]*shard)
	for _, shStart := range base.shardStarts {
		sh := base.shards[shStart]
		if sh.end <= start || sh.start >= end {
			continue
		}
		for key := range mi.series {
			sr, ok := sh.series[key]
			if !ok {
				continue
			}
			oldPts := sr.points()
			nsr := &series{measurement: sr.measurement, tags: sr.tags, bytes: sr.bytes}
			nsr.fields = make(map[string]*column, len(sr.fields))
			touched := false
			var valBytes int64
			for fk, col := range sr.fields {
				nc, n, vb, err := clearColumnRange(col, start, end, bs)
				if err != nil {
					return nil, 0, err
				}
				if nc != col {
					touched = true
					valBytes += vb + int64(n*(2+len(fk)))
					// A rebuilt column is re-sealed into fresh blocks.
					dropped = dropped || len(col.blocks) > 0 && (len(nc.blocks) == 0 || nc.blocks[0] != col.blocks[0])
				}
				if nc.numPoints() > 0 {
					nsr.fields[fk] = nc
				}
			}
			if !touched {
				continue
			}
			csh := cloned[shStart]
			if csh == nil {
				csh = sh.clone()
				cloned[shStart] = csh
			}
			newPts := 0
			for _, c := range nsr.fields {
				if n := c.numPoints(); n > newPts {
					newPts = n
				}
			}
			gone := int64(oldPts - newPts)
			removed += gone
			csh.points -= gone
			// Removed bytes: one 8-byte timestamp per removed point plus
			// each removed sample's field key and value encoding, clamped
			// to what the series is charged with (multi-field points share
			// a timestamp, so this is exact for aligned columns and a safe
			// estimate otherwise).
			goneBytes := gone*8 + valBytes
			if goneBytes > int64(nsr.bytes) {
				goneBytes = int64(nsr.bytes)
			}
			nsr.bytes -= int(goneBytes)
			csh.bytes -= goneBytes
			if len(nsr.fields) == 0 {
				delete(csh.series, key)
				csh.keyBytes -= len(key) + 8
			} else {
				csh.series[key] = nsr
			}
		}
	}
	if len(cloned) == 0 {
		return nil, 0, nil
	}
	nv := *base
	nv.shards = make(map[int64]*shard, len(base.shards))
	for k, v := range base.shards {
		nv.shards[k] = v
	}
	for k, v := range cloned {
		nv.shards[k] = v
	}
	nv.epoch++
	nv.dropsBlocks = nv.dropsBlocks || dropped
	return &nv, removed, nil
}

// deleteBeforeView derives, copy-on-write, a view with every shard
// whose window ends at or before t removed, reporting how many were
// dropped. It returns (nil, 0) when no shard qualifies.
func deleteBeforeView(base *dbView, t int64) (*dbView, int) {
	dropped := 0
	for _, s := range base.shardStarts {
		if base.shards[s].end <= t {
			dropped++
		}
	}
	if dropped == 0 {
		return nil, 0
	}
	nv := *base
	nv.shards = make(map[int64]*shard, len(base.shards)-dropped)
	nv.shardStarts = make([]int64, 0, len(base.shardStarts)-dropped)
	for _, s := range base.shardStarts {
		if sh := base.shards[s]; sh.end > t {
			nv.shards[s] = sh
			nv.shardStarts = append(nv.shardStarts, s)
		}
	}
	nv.epoch++
	nv.dropsBlocks = true
	return &nv, dropped
}

// spillBlocksView derives, copy-on-write, a view with each block in
// twins replaced by its cold (or compaction-relocated) twin: same
// header and samples, payload living in a cold-tier segment file.
// The epoch does not advance — the stored data is unchanged, only its
// representation moved.
func spillBlocksView(base *dbView, twins map[*block]*block) *dbView {
	nv := *base
	clonedShards := false
	for _, start := range base.shardStarts {
		sh := base.shards[start]
		var nsh *shard
		for key, sr := range sh.series {
			var nsr *series
			for fk, col := range sr.fields {
				hit := false
				for _, blk := range col.blocks {
					if _, ok := twins[blk]; ok {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				nb := make([]*block, len(col.blocks))
				for i, blk := range col.blocks {
					if t, ok := twins[blk]; ok {
						nb[i] = t
					} else {
						nb[i] = blk
					}
				}
				nc := &column{blocks: nb, times: col.times, vals: col.vals}
				if nsr == nil {
					nsr = sr.clone()
					if nsh == nil {
						nsh = sh.clone()
						if !clonedShards {
							m := make(map[int64]*shard, len(nv.shards))
							for k, v := range nv.shards {
								m[k] = v
							}
							nv.shards = m
							clonedShards = true
						}
						nv.shards[start] = nsh
					}
					nsh.series[key] = nsr
				}
				nsr.fields[fk] = nc
			}
		}
	}
	nv.dropsBlocks = true
	return &nv
}
