package tsdb

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// QueryStats records the work a query performed — the quantities the
// experiment harness converts into device time.
type QueryStats struct {
	SeriesScanned int   // distinct series probed
	PointsScanned int64 // samples read from columns
	BytesScanned  int64 // encoded bytes of the samples read
	Rows          int   // rows emitted

	// BlocksDecoded counts sealed blocks whose payload the query
	// decompressed; BlocksSkipped counts sealed blocks pruned by their
	// min/max-time headers without touching the payload. Together they
	// make the block tier's pruning observable (an out-of-range scan
	// is all skips, no decodes).
	BlocksDecoded int64
	BlocksSkipped int64
	// BlocksFromDisk counts decoded blocks whose compressed payload was
	// read back from the cold tier (a pread + CRC check) rather than
	// memory — the cold tier's read-amplification signal. Always <=
	// BlocksDecoded; zero once the hot set is cached or resident.
	BlocksFromDisk int64

	// SnapshotEpoch is the mutation epoch of the snapshot the query ran
	// against (the consistency token of the snapshot-isolated read path).
	SnapshotEpoch int64
	// LockWaitNs is always zero: the read path pins its snapshot with
	// one atomic load and waits for no lock. The field stays because the
	// end-to-end benchmark reads it (tsdb.lock_wait_us).
	LockWaitNs int64
	// Groups is the number of series groups the query produced
	// (including groups that emitted no rows).
	Groups int
	// ParallelWorkers is the worker-pool width used to scan and
	// aggregate the groups (1 = serial).
	ParallelWorkers int

	// Tier names the rollup measurement the planner served this query
	// from (empty when the query ran against raw storage). The unsealed
	// tail beyond the tier's watermark is still read raw, so a tiered
	// answer is exact.
	Tier string
	// TierRawEquivalent estimates how many raw samples the tier portion
	// replaced — what PointsScanned would have charged without the
	// rewrite. The ratio TierRawEquivalent / PointsScanned is the
	// planner's read amplification win.
	TierRawEquivalent int64
}

// Add accumulates other into s. Counters sum; SnapshotEpoch and
// ParallelWorkers — per-query properties, not work counters — take the
// maximum, so a builder-level aggregate reports the newest snapshot
// seen and the widest pool used.
func (s *QueryStats) Add(o QueryStats) {
	s.SeriesScanned += o.SeriesScanned
	s.PointsScanned += o.PointsScanned
	s.BytesScanned += o.BytesScanned
	s.Rows += o.Rows
	s.BlocksDecoded += o.BlocksDecoded
	s.BlocksSkipped += o.BlocksSkipped
	s.BlocksFromDisk += o.BlocksFromDisk
	s.LockWaitNs += o.LockWaitNs
	s.Groups += o.Groups
	s.TierRawEquivalent += o.TierRawEquivalent
	if s.Tier == "" {
		s.Tier = o.Tier
	}
	if o.SnapshotEpoch > s.SnapshotEpoch {
		s.SnapshotEpoch = o.SnapshotEpoch
	}
	if o.ParallelWorkers > s.ParallelWorkers {
		s.ParallelWorkers = o.ParallelWorkers
	}
}

// Row is one output row as ResultSeries.Rows derives it: a timestamp
// and one value per projected field. Missing values are reported via
// the Present bitmap, which keeps Value free of a null kind.
type Row struct {
	Time    int64
	Values  []Value
	Present []bool // Present[i] reports whether Values[i] is set
}

// ResultSeries is one output series (per group), held by column: row j
// is Times[j] and each projected field's value j. Every slice is
// allocated by the query that returned it and aliases no storage, so
// the caller owns it.
type ResultSeries struct {
	Name    string
	Tags    Tags // group-by tag values (empty when no tag grouping)
	Columns []string
	Times   []int64 // bucket or sample times; zero for SHOW rows
	cols    []resultCol
}

// resultCol is one projected field: a vector of one value per row, and
// present, nil when every row has a value (always so for a single-field
// aggregate), else marking the rows that do. An absent row holds the
// zero of the vector's kind.
type resultCol struct {
	vals    valueVec
	present []bool
}

// Value returns field f's value in row j and whether the row has one.
func (s *ResultSeries) Value(f, j int) (Value, bool) {
	if f >= len(s.cols) || j >= len(s.Times) || (s.cols[f].present != nil && !s.cols[f].present[j]) {
		return Value{}, false
	}
	return s.cols[f].vals.at(j), true
}

// Float64s hands field f over as floats when every row has one numeric
// value kind: a float field's own slice, or one converted copy of an
// int field (count). A string, bool, mixed or gapped field reports
// false.
func (s *ResultSeries) Float64s(f int) ([]float64, bool) {
	if f >= len(s.cols) || s.cols[f].present != nil {
		return nil, false
	}
	switch v := &s.cols[f].vals; v.kind {
	case vecFloat:
		return v.f, true
	case vecInt:
		out := make([]float64, len(v.i))
		for j, x := range v.i {
			out[j] = float64(x)
		}
		return out, true
	}
	return nil, false
}

// Rows derives the row view of s.
func (s *ResultSeries) Rows() []Row {
	rows := make([]Row, len(s.Times))
	for j, t := range s.Times {
		rows[j] = Row{Time: t, Values: make([]Value, len(s.cols)), Present: make([]bool, len(s.cols))}
		for f := range s.cols {
			rows[j].Values[f], rows[j].Present[f] = s.Value(f, j)
		}
	}
	return rows
}

// appendRows concatenates rows onto s; a field gapped on either side
// is gapped in the result.
func (s *ResultSeries) appendRows(times []int64, cols []resultCol) {
	if len(s.Times) == 0 {
		s.Times, s.cols = times, cols
		return
	}
	n := len(s.Times)
	s.Times = append(s.Times, times...)
	for i := range s.cols {
		c, o := &s.cols[i], &cols[i]
		if c.present != nil || o.present != nil {
			c.present = append(presentOrAll(c.present, n), presentOrAll(o.present, len(times))...)
		}
		c.vals.appendVec(o.vals)
	}
}

func presentOrAll(p []bool, n int) []bool {
	if p == nil {
		p = slices.Repeat([]bool{true}, n)
	}
	return p
}

// orderAndLimit applies ORDER BY time DESC and LIMIT to rows that
// arrive ascending.
func (s *ResultSeries) orderAndLimit(desc bool, limit int) {
	n := len(s.Times)
	if limit > 0 {
		n = min(n, limit)
	}
	if desc || n < len(s.Times) {
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
			if desc {
				idx[j] = len(s.Times) - 1 - j
			}
		}
		s.reorder(idx)
	}
}

// reorder makes row j the old row idx[j], and keeps len(idx) rows.
func (s *ResultSeries) reorder(idx []int) {
	s.Times = pick(s.Times, idx)
	for i := range s.cols {
		s.cols[i] = resultCol{vals: s.cols[i].vals.pick(idx), present: pick(s.cols[i].present, idx)}
	}
}

// Result is the full answer to one query.
type Result struct {
	Series []ResultSeries
	Stats  QueryStats
}

// Query parses and executes a statement (SELECT or SHOW) that runs to
// completion: it has no context to cancel it.
func (db *DB) Query(stmt string) (*Result, error) {
	if isShowStatement(stmt) {
		return db.execShow(stmt)
	}
	if isDropStatement(stmt) {
		return db.execDrop(stmt)
	}
	q, err := Parse(stmt)
	if err != nil {
		return nil, err
	}
	return db.Exec(context.Background(), q)
}

// minParallelGroups is the group count below which automatic worker
// sizing stays serial — goroutine fan-out costs more than it saves on
// a handful of groups.
const minParallelGroups = 8

// maxAutoExecWorkers caps the automatically sized pool; an explicit
// DB.execWorkers may exceed it.
const maxAutoExecWorkers = 8

// execWorkersFor sizes the worker pool for a query with the given
// number of series groups.
func (db *DB) execWorkersFor(groups int) int {
	w := db.execWorkers
	if w <= 0 {
		if groups < minParallelGroups {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
		if w > maxAutoExecWorkers {
			w = maxAutoExecWorkers
		}
	}
	if w > groups {
		w = groups
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Exec executes a parsed query against the current snapshot. The
// snapshot is pinned with one atomic load, so Exec never blocks behind
// a write batch and always observes whole batches; series groups are
// scanned and aggregated by a bounded worker pool.
//
// When the query's shape matches a registered rollup tier — single
// aggregate over a grouping interval the tier's buckets divide — the
// planner transparently answers the sealed prefix from the tier and
// only the unsealed tail from raw storage (see planTiered).
//
// Once ctx is done the scan stops before its next series group or
// sealed-block decode, and Exec returns ctx's error with no result:
// never part of an answer.
func (db *DB) Exec(ctx context.Context, q *Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	v := db.view.Load()
	if res, ok, err := db.planTiered(ctx, v, q); ok || err != nil {
		return res, err
	}
	return db.execView(ctx, v, q)
}

// execState is one query worker's execution state. It holds what the
// query's workers share — the statement, the shards its range
// overlaps, the decode cache and the context's done channel, read
// once — and what the worker owns: the work it charges, its
// aggregation scratch and the error that stops it.
type execState struct {
	q      *Query
	shards []*shard
	cache  *decodeCache
	ctx    context.Context
	done   <-chan struct{}

	stats   QueryStats
	scratch aggScratch
	// err stops the worker. It is the first sealed block the worker
	// could not read back — an I/O fault on a spilled block (missing or
	// truncated segment, checksum mismatch) or a damaged resident
	// payload — or ctx's error once done is closed. Either fails the
	// query: skipping the block would answer with stored data silently
	// missing, and a stopped scan holds only part of an answer.
	err error
}

// stopped reports whether the worker must stop. It polls done without
// blocking, which takes no lock (ctx.Err would), so the block loop can
// ask before every decode.
func (st *execState) stopped() bool {
	if st.err == nil {
		select {
		case <-st.done:
			st.err = st.ctx.Err()
		default:
		}
	}
	return st.err != nil
}

// execView runs q, which Exec has validated, against one pinned view,
// bypassing the planner. The write path calls this on unpublished
// candidate views during rollup maintenance (never through Exec: the
// planner would consult the very tiers being rebuilt), with a context
// that is never done, so a reader's cancellation cannot tear a write
// batch.
//
// The groups are shared out among execWorkersFor workers, each with its
// own execState. The calling goroutine is the first worker, so a
// one-worker query starts no goroutine.
func (db *DB) execView(ctx context.Context, v *dbView, q *Query) (*Result, error) {
	res := &Result{}
	res.Stats.SnapshotEpoch = v.epoch
	res.Stats.ParallelWorkers = 1

	keys := v.matchSeries(q)
	res.Stats.SeriesScanned = len(keys)
	if len(keys) == 0 {
		return res, nil
	}

	groups := groupSeries(q, keys, v.index[q.Measurement])
	shards := v.shardsOverlapping(q.Start, q.End)
	columns := append([]string{"time"}, fieldLabels(q)...)
	out := make([]ResultSeries, len(groups))
	states := make([]execState, db.execWorkersFor(len(groups)))
	var next atomic.Int64
	work := func(ctx context.Context, st *execState) {
		*st = execState{q: q, shards: shards, cache: db.cache, ctx: ctx, done: ctx.Done()}
		for !st.stopped() {
			i := int(next.Add(1)) - 1
			if i >= len(groups) {
				return
			}
			st.execGroup(&groups[i], columns, &out[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < len(states); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(ctx, &states[w])
		}()
	}
	work(ctx, &states[0])
	wg.Wait()

	res.Stats.ParallelWorkers = len(states)
	for w := range states {
		if states[w].err != nil {
			return nil, states[w].err
		}
		res.Stats.Add(states[w].stats)
	}
	res.finish(q, out)
	return res, nil
}

// finish completes res from one series per group, the step the raw
// scan and the tier planner share: each series is put in the query's
// order and cut to its limit, and those left with rows become
// res.Series, sorted by tags. Groups counts the series given, empty
// ones included; Rows counts the rows kept.
func (res *Result) finish(q *Query, groups []ResultSeries) {
	res.Stats.Groups, res.Stats.Rows = len(groups), 0
	res.Series = groups[:0]
	for i := range groups {
		s := &groups[i]
		s.orderAndLimit(q.Descending, q.Limit)
		res.Stats.Rows += len(s.Times)
		if len(s.Times) > 0 {
			res.Series = append(res.Series, *s)
		}
	}
	if len(res.Series) == 0 {
		res.Series = nil // keep "no output" indistinguishable from the unsized path
	}
	sort.Slice(res.Series, func(i, j int) bool {
		return tagsLess(res.Series[i].Tags, res.Series[j].Tags)
	})
}

// execGroup scans and aggregates one series group into rs. Group slots
// are disjoint, so workers call this concurrently, each on its own
// state.
func (st *execState) execGroup(g *seriesGroup, columns []string, rs *ResultSeries) {
	rs.Name = st.q.Measurement
	rs.Tags = g.tags
	rs.Columns = columns
	if st.q.Aggregated() {
		st.execAgg(g.keys, rs)
	} else {
		st.execRaw(g.keys, rs)
	}
}

func fieldLabels(q *Query) []string {
	out := make([]string, len(q.Fields))
	for i, f := range q.Fields {
		out[i] = f.Label()
	}
	return out
}

// matchSeries finds series keys in the measurement that satisfy every
// tag predicate, using the most selective tag's posting list. Regex
// predicates are resolved against the tag-value index — each pattern is
// matched once per distinct value, not once per series.
func (v *dbView) matchSeries(q *Query) []string {
	mi, ok := v.index[q.Measurement]
	if !ok {
		return nil
	}
	// Single-regex statements — the batched fan-out shape — take a
	// direct route: match each distinct tag value once, union the
	// posting lists, done. No per-series re-check, no resolution map.
	if len(q.TagConds) == 0 && len(q.TagRegexps) == 1 {
		c := q.TagRegexps[0]
		vals, ok := mi.byTag[c.Key]
		if !ok {
			return nil
		}
		var out []string
		for val, list := range vals {
			if c.Re.MatchString(val) {
				out = append(out, list...)
			}
		}
		sort.Strings(out)
		return out
	}
	// Pre-resolve each regex predicate to its set of matching values.
	reMatch := make([]map[string]bool, len(q.TagRegexps))
	for i, c := range q.TagRegexps {
		vals, ok := mi.byTag[c.Key]
		if !ok {
			return nil
		}
		m := make(map[string]bool, len(vals))
		for val := range vals {
			if c.Re.MatchString(val) {
				m[val] = true
			}
		}
		if len(m) == 0 {
			return nil
		}
		reMatch[i] = m
	}
	var candidates []string
	switch {
	case len(q.TagConds) > 0:
		best := -1
		var bestList []string
		for _, c := range q.TagConds {
			vals, ok := mi.byTag[c.Key]
			if !ok {
				return nil
			}
			list, ok := vals[c.Value]
			if !ok {
				return nil
			}
			if best == -1 || len(list) < best {
				best = len(list)
				bestList = list
			}
		}
		candidates = bestList
	case len(q.TagRegexps) > 0:
		// Union the posting lists of the regex predicate with the
		// fewest matching values.
		best := 0
		for i := range reMatch {
			if len(reMatch[i]) < len(reMatch[best]) {
				best = i
			}
		}
		vals := mi.byTag[q.TagRegexps[best].Key]
		for val := range reMatch[best] {
			candidates = append(candidates, vals[val]...)
		}
	default:
		candidates = make([]string, 0, len(mi.series))
		for k := range mi.series {
			candidates = append(candidates, k)
		}
	}
	out := make([]string, 0, len(candidates))
	for _, k := range candidates {
		tags := mi.series[k]
		ok := true
		for _, c := range q.TagConds {
			val, has := tags.Get(c.Key)
			if !has || val != c.Value {
				ok = false
				break
			}
		}
		for i, c := range q.TagRegexps {
			if !ok {
				break
			}
			val, has := tags.Get(c.Key)
			if !has || !reMatch[i][val] {
				ok = false
			}
		}
		if ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

type seriesGroup struct {
	tags Tags
	keys []string
}

// groupKeysCover reports whether the GROUP BY keys cover the complete
// tag set of every matched series — in which case grouping is
// one-to-one with the series and no dedup map is needed.
func groupKeysCover(q *Query, keys []string, mi *measurementIndex) bool {
	if len(q.GroupByTags) == 0 {
		return false
	}
	for i, gk := range q.GroupByTags { // duplicate keys never cover
		for j := 0; j < i; j++ {
			if q.GroupByTags[j] == gk {
				return false
			}
		}
	}
	for _, k := range keys {
		tags := mi.series[k]
		if len(tags) != len(q.GroupByTags) {
			return false
		}
		for _, gk := range q.GroupByTags {
			if _, ok := tags.Get(gk); !ok {
				return false
			}
		}
	}
	return true
}

// groupSeries partitions matched series by the GROUP BY tag values.
// "*" groups by every tag (one group per series).
func groupSeries(q *Query, keys []string, mi *measurementIndex) []seriesGroup {
	if len(q.GroupByTags) == 0 {
		return []seriesGroup{{keys: keys}}
	}
	star := false
	for _, t := range q.GroupByTags {
		if t == "*" {
			star = true
		}
	}
	// Fast path: GROUP BY * — or a key set covering every series' full
	// tag set, like the fan-out GROUP BY "NodeId", "Label" — puts each
	// series in its own group, so the map/dedup machinery below is pure
	// overhead. Keys arrive sorted, which keeps the output order
	// deterministic.
	if star || groupKeysCover(q, keys, mi) {
		out := make([]seriesGroup, len(keys))
		for i, k := range keys {
			out[i] = seriesGroup{tags: mi.series[k], keys: keys[i : i+1 : i+1]}
		}
		return out
	}
	byID := make(map[string]*seriesGroup)
	var order []string
	for _, k := range keys {
		// A group is keyed by its GROUP BY values in canonical (sorted)
		// order, so a series whose full tag set the keys cover lands in
		// the same group as the others sharing those values, and can
		// lend its own tag set.
		gt := mi.series[k]
		if !groupKeysCover(q, []string{k}, mi) {
			gt = nil
			for _, gk := range q.GroupByTags {
				v, _ := mi.series[k].Get(gk)
				gt = append(gt, Tag{gk, v})
			}
			slices.SortStableFunc(gt, cmpTagKey)
		}
		id := seriesKey("", gt)
		g, ok := byID[id]
		if !ok {
			g = &seriesGroup{tags: gt}
			byID[id] = g
			order = append(order, id)
		}
		g.keys = append(g.keys, k)
	}
	sort.Strings(order)
	out := make([]seriesGroup, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// tagsLess orders tag sets field-wise (key, then value, per position).
// This matches the ordering of the rendered series keys for ordinary
// tag values while allocating nothing; batched queries sort hundreds
// of output series per statement, so this is on the query hot path.
func tagsLess(a, b Tags) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Key != b[i].Key {
			return a[i].Key < b[i].Key
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}

// colChunk is one contiguous, time-sorted run of samples that falls
// inside the query range — a window onto either a decoded sealed
// block's payload or a column's raw tail. Aggregation reads the chunks'
// typed slices in place; nothing is materialized per sample.
type colChunk struct {
	times timeVec
	vals  valueVec
}

// chargeChunks accounts the chunks' samples to the worker's stats;
// every scan calls it exactly once per chunk list.
func (st *execState) chargeChunks(chunks []colChunk) {
	for i := range chunks {
		n := int64(chunks[i].times.len())
		st.stats.PointsScanned += n
		st.stats.BytesScanned += 8*n + chunks[i].vals.encodedSize()
	}
}

// collectChunksInto gathers, appending into a reusable buffer, the
// column ranges of one field inside the query range across the given
// series and the overlapping shards, and reports whether visiting the
// chunks in order yields globally time-sorted samples. It charges
// block decode/prune work to the stats but not per-sample counters
// (see chargeChunks).
//
// Published columns are invariantly time-sorted (see shard.go), and
// sealed blocks are immutable with idempotent decode caching, so this
// is a walk safe for any number of concurrent readers. Each column is
// visited through a columnIterator: sealed blocks (header-pruned, then
// decoded) followed by the raw tail.
func (st *execState) collectChunksInto(chunks []colChunk, keys []string, field string) (_ []colChunk, sorted bool) {
	sorted = true
	for _, sh := range st.shards {
		for _, k := range keys {
			sr, ok := sh.series[k]
			if !ok {
				continue
			}
			col := sr.field(field)
			if col == nil {
				continue
			}
			it := newColumnIterator(col, st.q.Start, st.q.End)
			for {
				ch, ok := it.next(st)
				if !ok {
					break
				}
				if n := len(chunks); n > 0 {
					if prev := &chunks[n-1].times; ch.times.at(0) < prev.at(prev.len()-1) {
						sorted = false
					}
				}
				chunks = append(chunks, ch)
			}
		}
	}
	return chunks, sorted
}

// mergeChunks folds an out-of-order chunk list (several series in one
// group, their samples interleaved in time) into one chunk sorted by
// time — stable, so equal timestamps keep their scan order.
func mergeChunks(chunks []colChunk) colChunk {
	var col column
	var ts []int64
	for i := range chunks {
		ts = chunks[i].times.appendTo(ts)
		col.vals.appendVec(chunks[i].vals)
	}
	col.times.t = ts
	col.sortByTime()
	return colChunk{times: col.times, vals: col.vals}
}

// scanField copies, in time order, every sample of one series' field
// in the query range into fresh slices; of samples sharing a time, the
// last stored wins.
func (st *execState) scanField(key string, field string) ([]int64, valueVec) {
	chunks, sorted := st.collectChunksInto(nil, []string{key}, field)
	st.chargeChunks(chunks)
	if !sorted {
		chunks = []colChunk{mergeChunks(chunks)}
	}
	var times []int64
	var vals valueVec
	for i := range chunks {
		times = chunks[i].times.appendTo(times)
		vals.appendVec(chunks[i].vals)
	}
	keep := make([]int, 0, len(times))
	for k, t := range times {
		if n := len(keep); n > 0 && times[keep[n-1]] == t {
			keep = keep[:n-1]
		}
		keep = append(keep, k)
	}
	if len(keep) < len(times) {
		return pick(times, keep), vals.pick(keep)
	}
	return times, vals
}

// alignFields assembles a series' columns from per-field lists, each
// ascending with distinct times. Lists sharing one time set are taken
// as they are; otherwise the rows are the union of the times, and a
// field lacking one is padded there and marked absent.
func alignFields(times [][]int64, vals []valueVec) ([]int64, []resultCol) {
	union := times[0]
	for _, t := range times[1:] {
		if !slices.Equal(t, union) {
			union = slices.Compact(slices.Sorted(slices.Values(slices.Concat(times...))))
			break
		}
	}
	cols := make([]resultCol, len(vals))
	for i, v := range vals {
		if len(times[i]) == len(union) {
			cols[i].vals = v
			continue
		}
		if v.len() == 0 {
			v = valueVec{m: []Value{}} // a field with no value takes its kind from none
		}
		idx := make([]int, len(union))
		present := make([]bool, len(union))
		for j, t := range union {
			if idx[j], present[j] = slices.BinarySearch(times[i], t); !present[j] {
				idx[j] = -1
			}
		}
		cols[i] = resultCol{vals: v.pick(idx), present: present}
	}
	return union, cols
}

// aggScratch recycles the non-escaping per-group buffers of execAgg
// across the (often hundreds of) output groups one worker executes.
type aggScratch struct {
	chunks []colChunk
	times  [][]int64 // per field; each list is handed to the result
	vals   []valueVec
}

// The aggregate functions are the kernel's modes, and aggNames, indexed
// by mode, is the one list of their names.
const (
	kCount = iota
	kSum
	kMean
	kMax
	kMin
	kSpread
	kFirst
	kLast
	kStddev
	kMedian
)

var aggNames = [...]string{
	kCount: "count", kSum: "sum", kMean: "mean", kMax: "max", kMin: "min",
	kSpread: "spread", kFirst: "first", kLast: "last", kStddev: "stddev", kMedian: "median",
}

// IsAggregate reports whether name is an aggregate function the engine
// evaluates, in a query or a rollup.
func IsAggregate(name string) bool { return slices.Contains(aggNames[:], name) }

// bucketAcc accumulates one field over the current bucket: a count,
// the float64 scalars of a numeric aggregate (stddev keeps Welford's n,
// mean and m2 in n, f1 and f2), the value first or last keeps, or the
// samples median sorts.
type bucketAcc struct {
	mode   int
	n      int64
	f1, f2 float64
	seen   bool
	v      Value     // first, last
	med    []float64 // median's samples; the backing is kept across buckets
	num    []float64 // a mixed run's numeric values, reused run to run
}

// reduce folds the non-empty run vals[j:k] into the accumulator. A
// numeric aggregate reads a typed run in place, and a mixed run's
// numeric values as floats: strings and bools count only toward count,
// first and last.
func (a *bucketAcc) reduce(vals *valueVec, j, k int) {
	switch {
	case a.mode == kCount:
		a.n += int64(k - j)
	case a.mode == kFirst:
		if !a.seen {
			a.v, a.seen = vals.at(j), true
		}
	case a.mode == kLast:
		a.v, a.seen = vals.at(k-1), true
	case vals.kind == vecFloat:
		reduceRun(a, vals.f[j:k])
	case vals.kind == vecFloat32:
		reduceRun(a, vals.f32[j:k])
	case vals.kind == vecInt:
		reduceRun(a, vals.i[j:k])
	default:
		a.num = a.num[:0]
		for _, x := range vals.m[j:k] {
			if f, ok := x.AsFloat(); ok {
				a.num = append(a.num, f)
			}
		}
		if len(a.num) > 0 {
			reduceRun(a, a.num)
		}
	}
}

// reduceRun folds one non-empty numeric run into the accumulator, in
// order, in float64 (widening a float32 is exact).
func reduceRun[T float64 | float32 | int64](a *bucketAcc, run []T) {
	switch a.mode {
	case kSum, kMean:
		acc := a.f1
		for _, x := range run {
			acc += float64(x)
		}
		a.f1, a.seen = acc, true
		a.n += int64(len(run))
	case kMax:
		hi := a.f2
		if !a.seen {
			hi, a.seen = float64(run[0]), true
		}
		for _, x := range run {
			if fx := float64(x); fx > hi {
				hi = fx
			}
		}
		a.f2 = hi
	case kMin:
		lo := a.f1
		if !a.seen {
			lo, a.seen = float64(run[0]), true
		}
		for _, x := range run {
			if fx := float64(x); fx < lo {
				lo = fx
			}
		}
		a.f1 = lo
	case kSpread:
		lo, hi := a.f1, a.f2
		if !a.seen {
			lo, hi, a.seen = float64(run[0]), float64(run[0]), true
		}
		for _, x := range run {
			fx := float64(x)
			if fx < lo {
				lo = fx
			}
			if fx > hi {
				hi = fx
			}
		}
		a.f1, a.f2 = lo, hi
	case kStddev:
		n, mean, m2 := a.n, a.f1, a.f2
		for _, x := range run {
			fx := float64(x)
			n++
			d := fx - mean
			mean += d / float64(n)
			m2 += d * (fx - mean)
		}
		a.n, a.f1, a.f2 = n, mean, m2
	case kMedian:
		for _, x := range run {
			a.med = append(a.med, float64(x))
		}
	}
}

// flush appends the finished bucket's value, if it has one, and resets
// the accumulator for the next bucket.
func (a *bucketAcc) flush(t int64, times []int64, vals *valueVec) []int64 {
	v, ok := Float(a.f1), a.seen
	switch a.mode {
	case kCount:
		v, ok = Int(a.n), a.n > 0
	case kMean:
		v = Float(a.f1 / float64(a.n))
	case kMax:
		v = Float(a.f2)
	case kSpread:
		v = Float(a.f2 - a.f1)
	case kFirst, kLast:
		v = a.v
	case kStddev:
		v, ok = Float(math.Sqrt(a.f2/float64(a.n-1))), a.n > 1
	case kMedian:
		s, n := a.med, len(a.med)
		sort.Float64s(s)
		switch ok = n > 0; {
		case n%2 == 1:
			v = Float(s[n/2])
		case ok:
			v = Float((s[n/2-1] + s[n/2]) / 2)
		}
		a.med = s[:0]
	}
	a.n, a.f1, a.f2, a.seen, a.v = 0, 0, 0, false, Value{}
	if ok {
		times = append(times, t)
		vals.append(v)
	}
	return times
}

// reduceField is the one aggregation kernel: it walks a time-sorted
// chunk list once, cuts it into runs at bucket boundaries — one
// division and one timeVec.runEnd per run — reduces each run into the
// accumulator, and emits one value per non-empty bucket, in time order
// (empty buckets are omitted: InfluxDB's fill(none)), into fresh slices
// sized for the buckets the chunks can span. iv <= 0 is the query
// without GROUP BY time: a single bucket stamped whole.
func reduceField(fn string, chunks []colChunk, iv, whole int64) (outT []int64, outV valueVec) {
	acc := bucketAcc{mode: slices.Index(aggNames[:], fn)}
	buckets := 0
	for i := range chunks {
		buckets += chunks[i].times.len()
	}
	if last := len(chunks) - 1; iv <= 0 {
		buckets = min(buckets, 1)
	} else if last >= 0 {
		lt := &chunks[last].times
		span := alignDown(lt.at(lt.len()-1), iv) - alignDown(chunks[0].times.at(0), iv)
		if span >= 0 && span/iv < int64(buckets) {
			buckets = int(span/iv) + 1
		}
	}
	outT = make([]int64, 0, buckets)
	switch acc.mode {
	case kCount:
		outV = makeVec(vecInt, buckets)
	case kFirst, kLast: // the values' kind, sized for a typed column
		if len(chunks) > 0 && chunks[0].vals.kind != vecMixed {
			outV = makeVec(chunks[0].vals.kind, buckets)
		}
	default:
		outV = makeVec(vecFloat, buckets)
	}
	cur, open := whole, false
	for i := range chunks {
		times, vals := &chunks[i].times, &chunks[i].vals
		n := times.len()
		for j, k := 0, 0; j < n; j = k {
			bt := whole
			k = n
			if iv > 0 {
				t := times.at(j)
				bt = t - mod(t, iv)
				end := bt + iv
				if end < bt {
					end = math.MaxInt64 // overflow: cut the run early, never late
				}
				k = times.runEnd(j, end)
			}
			if open && bt != cur {
				outT = acc.flush(cur, outT, &outV)
			}
			cur, open = bt, true
			acc.reduce(vals, j, k)
		}
	}
	if open {
		outT = acc.flush(cur, outT, &outV)
	}
	return outT, outV
}

// execAgg computes aggregate rows, optionally bucketed by GROUP BY
// time. Each field is reduced by reduceField straight off the storage
// columns, in the time order of its samples; an out-of-order chunk
// list is merged into one sorted chunk first. The per-field bucket
// lists become the result's columns as they are; a bucket no field has
// a value for yields no row.
func (st *execState) execAgg(keys []string, rs *ResultSeries) {
	q, scratch := st.q, &st.scratch
	nf := len(q.Fields)
	times, vals := slices.Grow(scratch.times[:0], nf)[:nf], slices.Grow(scratch.vals[:0], nf)[:nf]
	scratch.times, scratch.vals = times, vals
	for i, f := range q.Fields {
		chunks, sorted := st.collectChunksInto(scratch.chunks[:0], keys, f.Field)
		scratch.chunks = chunks // keeps the grown backing for reuse
		st.chargeChunks(chunks)
		if !sorted {
			chunks = []colChunk{mergeChunks(chunks)}
		}
		times[i], vals[i] = reduceField(f.Func, chunks, q.GroupByTime, rangeStart(q))
	}
	rs.Times, rs.cols = alignFields(times, vals)
}

func rangeStart(q *Query) int64 {
	if q.Start == math.MinInt64 {
		return 0
	}
	return q.Start
}

// execRaw emits raw samples. Fields are merge-aligned on identical
// timestamps *within* one series; rows from different series in the
// group are concatenated and time-sorted, never merged (two nodes
// sampled at the same instant stay two rows).
func (st *execState) execRaw(keys []string, rs *ResultSeries) {
	times := make([][]int64, len(st.q.Fields))
	vals := make([]valueVec, len(st.q.Fields))
	sorted := true
	for _, key := range keys {
		for i, f := range st.q.Fields {
			times[i], vals[i] = st.scanField(key, f.Field)
		}
		t, cols := alignFields(times, vals)
		if len(t) == 0 {
			continue
		}
		if n := len(rs.Times); n > 0 && t[0] < rs.Times[n-1] {
			sorted = false
		}
		rs.appendRows(t, cols)
	}
	if !sorted {
		idx := make([]int, len(rs.Times))
		for j := range idx {
			idx[j] = j
		}
		sort.SliceStable(idx, func(a, b int) bool { return rs.Times[idx[a]] < rs.Times[idx[b]] })
		rs.reorder(idx)
	}
}

// FormatResult renders a result as an aligned text table, useful in
// CLIs and examples.
func FormatResult(r *Result) string {
	var b strings.Builder
	for i := range r.Series {
		s := &r.Series[i]
		fmt.Fprintf(&b, "name: %s", s.Name)
		if len(s.Tags) > 0 {
			b.WriteString(" tags: ")
			for j, t := range s.Tags {
				if j > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "%s=%s", t.Key, t.Value)
			}
		}
		b.WriteString("\n")
		b.WriteString(strings.Join(s.Columns, "\t"))
		b.WriteString("\n")
		for _, row := range s.Rows() {
			b.WriteString(FormatTime(row.Time))
			for k, v := range row.Values {
				b.WriteByte('\t')
				if row.Present[k] {
					b.WriteString(v.String())
				} else {
					b.WriteString("null")
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}
