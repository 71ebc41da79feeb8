package tsdb

import (
	"context"
	"math"
)

// Tier-aware query planning.
//
// A dashboard query like
//
//	SELECT max("Reading") FROM "Power" GROUP BY time(1h)
//
// over a month of 60-second samples reads ~43k raw points per series.
// When a rollup tier (rollup.go) already materializes per-5-minute or
// per-hour maxima, the same buckets can be assembled from tier rows —
// 12x to 60x fewer points — provided the answer stays exact. The
// planner rewrites eligible queries to do exactly that:
//
//   - The sealed prefix [Start, split) is served from the coarsest
//     registered tier whose interval divides the query's GROUP BY time
//     and whose chain bottoms out at the queried measurement + field
//     with the same aggregate.
//   - The unsealed tail [split, End) — buckets at or past the tier's
//     watermark, which raw writes may still be filling — is served from
//     raw storage, so late buckets are never reported from stale rows.
//     The watermark is inferWatermark's, read off the tier's rows: the
//     one maintenance advances, so the split falls where the rows end.
//   - split is GROUP-BY-aligned and buckets are absolutely aligned
//     everywhere (base = alignDown(minT, interval)), so the merge is
//     plain row concatenation per group, no bucket can straddle it.
//
// max/min/sum/count compose losslessly across tiers (sum of sums,
// max of maxes, sum of counts); mean recombines from the tier's
// materialized sum and count side fields. Sum-based aggregates over
// arbitrary floats may differ from the raw scan by reassociation
// (~1 ulp); integer-valued floats below 2^53 are bit-exact — see
// DESIGN.md.

// planTiered attempts the rollup rewrite for q against pinned view v.
// ok=false means the query is not eligible (no matching tier, unaligned
// range) and the caller should run the raw path.
func (db *DB) planTiered(ctx context.Context, v *dbView, q *Query) (_ *Result, ok bool, _ error) {
	reg := db.rollups.Load()
	if reg == nil || !q.Aggregated() || len(q.Fields) != 1 {
		return nil, false, nil
	}
	f := q.Fields[0]
	g := q.GroupByTime
	if g <= 0 || !chainableAgg(f.Func) {
		return nil, false, nil
	}
	best := -1
	for i := range reg.specs {
		cr := &reg.specs[i]
		if cr.root != q.Measurement || cr.rootField != f.Field || cr.agg != f.Func {
			continue
		}
		if g%cr.interval != 0 {
			continue
		}
		if best == -1 || cr.interval > reg.specs[best].interval {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	cr := reg.specs[best]
	// A Start inside a tier bucket would clip raw samples that bucket's
	// row has already folded in; only tier-aligned (hence GROUP-BY-
	// aligned) starts are rewritten.
	if q.Start != math.MinInt64 && mod(q.Start, cr.interval) != 0 {
		return nil, false, nil
	}
	wm, okWM := inferWatermark(v, cr)
	if !okWM {
		return nil, false, nil
	}
	split := alignDown(min(wm, q.End), g)
	if split <= q.Start {
		return nil, false, nil // tier covers nothing of the range
	}

	// Tier rows are already per-bucket aggregates: they recombine into
	// coarser buckets as a chained tier reads its parent (sum of counts,
	// max of maxes), and plannerTierValue applies that tier's coercions.
	cr.chained = true
	tq := &Query{
		Measurement: cr.target,
		Fields:      rollupQueryFields(cr),
		TagConds:    q.TagConds,
		TagRegexps:  q.TagRegexps,
		Start:       q.Start,
		End:         split,
		GroupByTime: g,
		GroupByTags: q.GroupByTags,
	}
	tres, err := db.execView(ctx, v, tq)
	if err != nil {
		return nil, false, err
	}
	rq := *q
	rq.Start = split
	rq.Descending = false
	rq.Limit = 0
	rres, err := db.execView(ctx, v, &rq)
	if err != nil {
		return nil, false, err
	}

	columns := []string{"time", f.Label()}
	var merged []ResultSeries
	byKey := make(map[string]int)
	groupOf := func(tags Tags) *ResultSeries {
		key := seriesKey("", tags)
		i, ok := byKey[key]
		if !ok {
			i = len(merged)
			byKey[key] = i
			merged = append(merged, ResultSeries{Name: q.Measurement, Tags: tags, Columns: columns})
		}
		return &merged[i]
	}
	for i := range tres.Series {
		groupOf(tres.Series[i].Tags).appendRows(plannerTierColumn(cr, &tres.Series[i]))
	}
	// Tier rows all precede split, raw rows all follow it, and both sides
	// arrive ascending — concatenation is the merge.
	for i := range rres.Series {
		s := &rres.Series[i]
		groupOf(s.Tags).appendRows(s.Times, s.cols)
	}

	res := &Result{Stats: tres.Stats}
	res.Stats.Add(rres.Stats)
	res.Stats.Tier = cr.target
	res.Stats.TierRawEquivalent = estimateRawPoints(v, q, f.Field, split)
	res.finish(q, merged)
	return res, true, nil
}

// plannerTierColumn converts an aggregated tier series into the buckets
// the raw scan would have produced: the rows that yield a value, as one
// dense column.
func plannerTierColumn(cr compiledRollup, s *ResultSeries) ([]int64, []resultCol) {
	times, vals := make([]int64, 0, len(s.Times)), valueVec{}
	for j, t := range s.Times {
		if v, ok := plannerTierValue(cr, s, j); ok {
			times = append(times, t)
			vals.append(v)
		}
	}
	return times, []resultCol{{vals: vals}}
}

// plannerTierValue converts row j of an aggregated tier series into the
// value the raw scan would have produced for that bucket.
func plannerTierValue(cr compiledRollup, s *ResultSeries, j int) (Value, bool) {
	v, ok := s.Value(0, j)
	if !ok {
		return Value{}, false
	}
	switch cr.agg {
	case "mean":
		c, okC := s.Value(1, j)
		sum, okS := v.AsFloat()
		cnt, okF := c.AsFloat()
		if !okC || !okS || !okF || cnt == 0 {
			return Value{}, false
		}
		return Float(sum / cnt), true
	case "count":
		// Raw count emits Int; the tier side sums Int counts through the
		// float kernel, so coerce back.
		fv, ok := v.AsFloat()
		if !ok {
			return Value{}, false
		}
		return Int(int64(math.Round(fv))), true
	default:
		return v, true
	}
}

// estimateRawPoints estimates how many raw samples of field the query
// would have scanned over [q.Start, split) without the rewrite —
// header-only work: full blocks contribute their exact counts, blocks
// straddling a boundary contribute proportionally, the raw tail is
// counted exactly. Reported as QueryStats.TierRawEquivalent.
func estimateRawPoints(v *dbView, q *Query, field string, split int64) int64 {
	keys := v.matchSeries(q)
	if len(keys) == 0 {
		return 0
	}
	shards := v.shardsOverlapping(q.Start, split)
	var n int64
	for _, sh := range shards {
		for _, k := range keys {
			sr, ok := sh.series[k]
			if !ok {
				continue
			}
			col := sr.field(field)
			if col == nil {
				continue
			}
			for _, b := range col.blocks {
				if b.maxT < q.Start || b.minT >= split {
					continue
				}
				if b.minT >= q.Start && b.maxT < split {
					n += int64(b.count)
					continue
				}
				span := b.maxT - b.minT + 1
				lo := max(q.Start, b.minT)
				hi := min(split-1, b.maxT)
				if ovl := hi - lo + 1; ovl > 0 && span > 0 {
					n += int64(b.count) * ovl / span
				}
			}
			lo, hi := col.rangeIndexes(q.Start, split)
			n += int64(hi - lo)
		}
	}
	return n
}
