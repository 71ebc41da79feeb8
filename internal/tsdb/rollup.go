package tsdb

import (
	"context"
	"fmt"
	"math"
)

// Rollups are the engine's continuous queries: InfluxDB's "variety of
// features that can be used to calculate aggregation, roll-ups,
// downsampling" the paper leans on (Section III-C). A RollupSpec
// materializes a downsampled copy of one field into a target
// measurement; the tier-aware planner (exec.go) then answers coarse
// dashboard queries from the rollup tier transparently, and the write
// path keeps every tier fresh incrementally — O(touched buckets) per
// batch instead of a poll-loop rescan.
type RollupSpec struct {
	// Source measurement and field to downsample. Source may itself be
	// a registered rollup target, chaining tiers (raw -> 5m -> 1h);
	// a chained spec must keep the parent's field and aggregate, and
	// its interval must be a coarser multiple of the parent's.
	Source string
	Field  string
	// Aggregate function ("max", "mean", ...).
	Aggregate string
	// Interval is the bucket width in seconds.
	Interval int64
	// Target measurement; empty derives "<Source>_<agg>_<interval>s".
	Target string
}

// Validate checks the spec.
func (s *RollupSpec) Validate() error {
	if s.Source == "" || s.Field == "" {
		return fmt.Errorf("tsdb: rollup needs source and field")
	}
	if s.Interval <= 0 {
		return fmt.Errorf("tsdb: rollup interval must be positive")
	}
	if s.Aggregate == "" {
		return fmt.Errorf("tsdb: rollup needs an aggregate")
	}
	if !IsAggregate(s.Aggregate) {
		return fmt.Errorf("tsdb: unknown rollup aggregate %q", s.Aggregate)
	}
	return nil
}

// TargetName resolves the target measurement.
func (s *RollupSpec) TargetName() string {
	if s.Target != "" {
		return s.Target
	}
	return fmt.Sprintf("%s_%s_%ds", s.Source, s.Aggregate, s.Interval)
}

const minInt64 = math.MinInt64

// alignDown floors t to a multiple of interval (bucket start).
func alignDown(t, interval int64) int64 { return t - mod(t, interval) }

// compiledRollup is a registered spec resolved against the registry:
// chain provenance (root measurement/field for planner matching) plus
// the flags maintenance needs.
type compiledRollup struct {
	target   string
	source   string
	field    string
	agg      string
	interval int64

	chained   bool
	root      string // raw measurement at the bottom of the chain
	rootField string // raw field the chain aggregates
	depth     int
}

// rollupRegistry is the immutable registered-spec set the planner and
// write-path maintenance consult. specs is in registration order,
// which is topological: a chained spec's parent always precedes it.
type rollupRegistry struct {
	specs    []compiledRollup
	byTarget map[string]int
}

// chainableAggs are the aggregates a rollup can source from a coarser
// rollup (and the only ones the planner rewrites): they compose
// exactly — max of maxes, sum of sums, sum of counts; mean rides on
// materialized sum+count side fields.
func chainableAgg(agg string) bool {
	switch agg {
	case "max", "min", "sum", "count", "mean":
		return true
	}
	return false
}

// meanSumField / meanCountField name the side fields a mean rollup
// materializes next to the mean itself, so coarser tiers and the
// planner can recombine exactly instead of averaging averages.
func meanSumField(f string) string   { return f + "_sum" }
func meanCountField(f string) string { return f + "_count" }

// RegisterRollup compiles and registers a rollup tier on the engine.
// The target must be unused; a spec whose Source is itself a
// registered target chains onto it, which requires the same field and
// aggregate, a chain-exact aggregate (max/min/sum/count/mean), and an
// interval that is a coarser multiple of the parent's.
func (db *DB) RegisterRollup(spec RollupSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	target := spec.TargetName()
	db.lockWrite()
	defer db.unlockWrite()
	old := db.rollups.Load()
	cr := compiledRollup{
		target:    target,
		source:    spec.Source,
		field:     spec.Field,
		agg:       spec.Aggregate,
		interval:  spec.Interval,
		root:      spec.Source,
		rootField: spec.Field,
	}
	if old != nil {
		if _, dup := old.byTarget[target]; dup {
			return fmt.Errorf("tsdb: rollup target %q already registered", target)
		}
		if pi, ok := old.byTarget[spec.Source]; ok {
			parent := old.specs[pi]
			if !chainableAgg(spec.Aggregate) {
				return fmt.Errorf("tsdb: rollup aggregate %q cannot chain from %q", spec.Aggregate, spec.Source)
			}
			if spec.Aggregate != parent.agg {
				return fmt.Errorf("tsdb: chained rollup aggregate %q differs from parent's %q", spec.Aggregate, parent.agg)
			}
			if spec.Field != parent.rootField {
				return fmt.Errorf("tsdb: chained rollup field %q differs from parent's %q", spec.Field, parent.rootField)
			}
			if spec.Interval <= parent.interval || spec.Interval%parent.interval != 0 {
				return fmt.Errorf("tsdb: chained rollup interval %ds must be a coarser multiple of the parent's %ds",
					spec.Interval, parent.interval)
			}
			cr.chained = true
			cr.root = parent.root
			cr.rootField = parent.rootField
			cr.depth = parent.depth + 1
		}
	}
	next := &rollupRegistry{byTarget: make(map[string]int)}
	if old != nil {
		next.specs = append(next.specs, old.specs...)
		for k, v := range old.byTarget {
			next.byTarget[k] = v
		}
	}
	next.byTarget[target] = len(next.specs)
	next.specs = append(next.specs, cr)
	db.rollups.Store(next)
	return nil
}

// rollupOp is one tier mutation produced by maintenance: clear the
// target's stale bucket rows, then write the recomputed ones. Recorded
// in the composite WAL record so recovery replays the exact mutation
// instead of re-running maintenance (deterministic, never
// double-applied).
type rollupOp struct {
	target     string
	clearStart int64 // half-open clear range; equal bounds = no clear
	clearEnd   int64
	points     []Point
	series     []*series // each point's series, as applyRollupOp wrote it
}

// inferWatermark derives a spec's watermark (first unprocessed bucket
// start) from stored data alone. It is the one watermark — maintenance,
// the planner, ExpireRaw and TierStats read it — so a tier keeps no
// state but its rows, and restart, crash recovery and registration
// over existing data resume exactly where a live DB stands. Target
// rows sit at bucket starts, so the newest target row t means every
// bucket through t is materialized: wm = t + interval. An empty target
// starts at the source's first bucket. ok=false means the source holds
// no data yet. A bucket with no source data writes no row, so the
// watermark stays below such a gap until a later row lands; meanwhile
// maintenance re-reads the gap and the planner answers it from raw,
// both finding nothing.
//
// Crash safety falls out of the construction: a watermark inferred
// this way never points below an existing bucket row, so replayed
// maintenance recomputes whole buckets idempotently (clear + rewrite)
// instead of appending duplicates.
func inferWatermark(v *dbView, cr compiledRollup) (int64, bool) {
	if last, ok := viewTimeBound(v, cr.target, true); ok {
		return alignDown(last, cr.interval) + cr.interval, true
	}
	if first, ok := viewTimeBound(v, cr.source, false); ok {
		return alignDown(first, cr.interval), true
	}
	return 0, false
}

// rollupMaintain advances the tiers whose source a write batch touched
// (registration, hence topological, order) against candidate view v
// and returns the new candidate and the ops to log. Late writes heal
// buckets below the watermark via clear+rewrite, because the store
// appends duplicate timestamps rather than overwriting, and newly
// closed buckets are materialized up to the horizon: for a root tier
// the bucket holding the newest source point, which stays open; for a
// chained tier its parent's watermark. Every watermark here is
// inferWatermark's. Caller holds writeMu.
func (db *DB) rollupMaintain(v *dbView, points []Point) (*dbView, []rollupOp, error) {
	reg := db.rollups.Load()
	if reg == nil {
		return v, nil, nil
	}
	type timeRange struct{ min, max int64 }
	touched := make(map[string]timeRange)
	for i := range points {
		p := &points[i]
		tr, ok := touched[p.Measurement]
		if !ok {
			tr = timeRange{p.Time, p.Time}
		}
		touched[p.Measurement] = timeRange{min(tr.min, p.Time), max(tr.max, p.Time)}
	}
	var ops []rollupOp
	for _, cr := range reg.specs {
		tch, ok := touched[cr.source]
		if !ok {
			continue
		}
		wm, ok := inferWatermark(v, cr)
		if !ok {
			continue // source empty
		}
		// Horizon: how far materialization may advance. A root bucket
		// closes once a later source point arrives; a chained child
		// bucket once the parent materialized everything inside it.
		var horizon int64
		if cr.chained {
			horizon, ok = inferWatermark(v, reg.specs[reg.byTarget[cr.source]])
		} else {
			horizon, ok = viewTimeBound(v, cr.source, true)
		}
		if !ok {
			continue
		}
		horizon = alignDown(horizon, cr.interval)
		// Recompute span: newly closed buckets up to the horizon (growth)
		// plus the batch's touched buckets below the watermark (heal).
		start := min(wm, alignDown(tch.min, cr.interval))
		end := max(horizon, min(wm, alignDown(tch.max, cr.interval)+cr.interval))
		if start >= end {
			continue
		}
		nv, op, err := db.rollupExec(v, cr, start, end, wm)
		if err != nil {
			return nil, nil, err
		}
		if op.clearStart < op.clearEnd || len(op.points) > 0 {
			ops = append(ops, op)
		}
		v = nv
		// The target advanced over [start, end): chained children see it
		// as touched source data.
		tr, ok := touched[cr.target]
		if !ok {
			tr = timeRange{start, end - 1}
		}
		touched[cr.target] = timeRange{min(tr.min, start), max(tr.max, end-1)}
	}
	return v, ops, nil
}

// rollupExec recomputes one spec's buckets in [start, end) against
// candidate view v: it queries the source, builds the op (clear the
// stale target rows below the watermark, write the recomputed ones) and
// applies it. Returns the new candidate view and the op for the log.
func (db *DB) rollupExec(v *dbView, cr compiledRollup, start, end, wm int64) (*dbView, rollupOp, error) {
	q := &Query{
		Fields:      rollupQueryFields(cr),
		Measurement: cr.source,
		Start:       start,
		End:         end,
		GroupByTime: cr.interval,
		GroupByTags: []string{"*"},
	}
	res, err := db.execView(context.Background(), v, q)
	if err != nil {
		return nil, rollupOp{}, fmt.Errorf("tsdb: rollup %q: %w", cr.target, err)
	}
	op := rollupOp{target: cr.target, clearStart: start, clearEnd: min(end, wm)}
	for i := range res.Series {
		s := &res.Series[i]
		for j, t := range s.Times {
			fields, ok := rollupRowFields(cr, s, j)
			if !ok {
				continue
			}
			op.points = append(op.points, Point{
				Measurement: cr.target,
				Tags:        s.Tags,
				Fields:      fields,
				Time:        t,
			})
		}
	}
	if v, err = db.applyRollupOp(v, &op); err != nil {
		return nil, rollupOp{}, fmt.Errorf("tsdb: rollup %q: %w", cr.target, err)
	}
	return v, op, nil
}

// applyRollupOp applies one tier mutation to candidate view v: clear
// the stale range, then write the rows. Maintenance and WAL replay
// both apply ops here. A clear that finds nothing is recorded as none
// (clearEnd = clearStart), so a logged op says what it did.
func (db *DB) applyRollupOp(v *dbView, op *rollupOp) (_ *dbView, err error) {
	if op.clearStart < op.clearEnd {
		nv, _, err := clearMeasurementRangeView(v, op.target, op.clearStart, op.clearEnd, db.blockSize)
		if err != nil {
			return nil, err
		}
		if nv == nil {
			op.clearEnd = op.clearStart
		} else {
			v = nv
		}
	}
	if len(op.points) == 0 {
		return v, nil
	}
	v, op.series, err = db.writePointsView(v, op.points)
	return v, err
}

// rollupQueryFields builds the source query's field list for one spec.
// A root mean materializes sum and count next to the mean so coarser
// tiers and the planner recombine exactly; a chained tier re-reads the
// parent's materialized fields with chain-exact aggregates.
func rollupQueryFields(cr compiledRollup) []FieldExpr {
	if !cr.chained {
		if cr.agg == "mean" {
			return []FieldExpr{
				{Func: "mean", Field: cr.field},
				{Func: "sum", Field: cr.field},
				{Func: "count", Field: cr.field},
			}
		}
		return []FieldExpr{{Func: cr.agg, Field: cr.field}}
	}
	switch cr.agg {
	case "mean":
		return []FieldExpr{
			{Func: "sum", Field: meanSumField(cr.field)},
			{Func: "sum", Field: meanCountField(cr.field)},
		}
	case "count":
		// The parent's rows already hold per-bucket counts; coarser
		// counts are their sum.
		return []FieldExpr{{Func: "sum", Field: cr.field}}
	default: // max, min, sum compose with themselves
		return []FieldExpr{{Func: cr.agg, Field: cr.field}}
	}
}

// rollupRowFields converts row j of an aggregated source series into
// the target point's field map: a root tier's fields as they are, a
// chained tier's through the planner's coercions (counts stay Int,
// means recombine from sum/count).
func rollupRowFields(cr compiledRollup, s *ResultSeries, j int) (map[string]Value, bool) {
	names := []string{cr.field, meanSumField(cr.field), meanCountField(cr.field)}
	if !cr.chained {
		fields := make(map[string]Value, len(s.cols))
		for f := range s.cols {
			v, ok := s.Value(f, j)
			if !ok {
				return nil, false
			}
			fields[names[f]] = v
		}
		return fields, true
	}
	v, ok := plannerTierValue(cr, s, j)
	if !ok {
		return nil, false
	}
	if cr.agg != "mean" {
		return map[string]Value{cr.field: v}, true
	}
	sum, _ := s.Value(0, j) // both sides are sums, so floats
	cnt, _ := s.Value(1, j)
	return map[string]Value{names[0]: v, names[1]: sum, names[2]: Int(int64(math.Round(cnt.F)))}, true
}

// TierStats describes one registered rollup tier for observability
// (/v1/stats storage_tiers, mquery).
type TierStats struct {
	Target    string `json:"target"`
	Source    string `json:"source"`
	Aggregate string `json:"aggregate"`
	IntervalS int64  `json:"interval_s"`
	Points    int64  `json:"points"`
	Watermark int64  `json:"watermark"`
}

// TierStats lists the registered rollup tiers with their materialized
// point counts and each one's inferred watermark, in registration
// (chain) order: a DB recovered from its log reports what the live one
// did.
func (db *DB) TierStats() []TierStats {
	reg := db.rollups.Load()
	if reg == nil {
		return nil
	}
	out := make([]TierStats, 0, len(reg.specs))
	v := db.view.Load()
	for _, cr := range reg.specs {
		ts := TierStats{
			Target:    cr.target,
			Source:    cr.source,
			Aggregate: cr.agg,
			IntervalS: cr.interval,
			Points:    measurementPoints(v, cr.target),
		}
		ts.Watermark, _ = inferWatermark(v, cr) // 0 while the source is empty
		out = append(out, ts)
	}
	return out
}

// measurementPoints counts one measurement's stored points across all
// shards of v.
func measurementPoints(v *dbView, name string) int64 {
	mi, ok := v.index[name]
	if !ok {
		return 0
	}
	var n int64
	for _, s := range v.shardStarts {
		sh := v.shards[s]
		for key := range mi.series {
			if sr, ok := sh.series[key]; ok {
				n += int64(sr.points())
			}
		}
	}
	return n
}

// viewTimeBound reports a measurement's newest (last) or earliest
// stored timestamp within one pinned view. Shards are time-ordered, so
// the walk starts at that end and stops at the first shard holding the
// measurement.
func viewTimeBound(v *dbView, measurement string, last bool) (int64, bool) {
	mi, ok := v.index[measurement]
	if !ok {
		return 0, false
	}
	var best int64
	found := false
	for i := range v.shardStarts {
		if last {
			i = len(v.shardStarts) - 1 - i
		}
		sh := v.shards[v.shardStarts[i]]
		for key := range mi.series {
			sr, ok := sh.series[key]
			if !ok {
				continue
			}
			for _, f := range sr.fields {
				col := f.col
				t, ok := col.firstTime()
				if last {
					t, ok = col.lastTime()
				}
				if ok && (!found || last && t > best || !last && t < best) {
					best, found = t, true
				}
			}
		}
		if found {
			break
		}
	}
	return best, found
}
