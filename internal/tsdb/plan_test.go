package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameResult asserts the planner rewrite and the forced raw scan agree
// bit-for-bit: same series set (tags), same bucket times, same values.
// Fixtures use integer-valued floats, where even the sum-recombining
// tiers are exact (see the reassociation note in plan.go).
func sameResult(t *testing.T, planned, raw *Result, ctx string) {
	t.Helper()
	if len(planned.Series) != len(raw.Series) {
		t.Fatalf("%s: series count %d vs %d", ctx, len(planned.Series), len(raw.Series))
	}
	for i := range raw.Series {
		ps, rs := &planned.Series[i], &raw.Series[i]
		if seriesKey("", ps.Tags) != seriesKey("", rs.Tags) {
			t.Fatalf("%s: series %d tags %v vs %v", ctx, i, ps.Tags, rs.Tags)
		}
		pRows, rRows := ps.Rows(), rs.Rows()
		if len(pRows) != len(rRows) {
			t.Fatalf("%s: series %d rows %d vs %d", ctx, i, len(pRows), len(rRows))
		}
		for j := range rRows {
			pr, rr := pRows[j], rRows[j]
			if pr.Time != rr.Time {
				t.Fatalf("%s: series %d row %d time %d vs %d", ctx, i, j, pr.Time, rr.Time)
			}
			if len(pr.Values) != len(rr.Values) || pr.Values[0] != rr.Values[0] {
				t.Fatalf("%s: series %d bucket t=%d value %+v vs %+v", ctx, i, pr.Time, pr.Values, rr.Values)
			}
		}
	}
}

// TestPlannerChainedTierEquivalence registers a raw -> 5m -> 1h chain
// and checks an hour-bucketed dashboard query is served from the 1h
// tier (the coarsest eligible), identical to the raw scan.
func TestPlannerChainedTierEquivalence(t *testing.T) {
	db := rollupFixture(t, 2, 48*60) // 48 h of minutely data per node
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterRollup(RollupSpec{Source: "Power_max_300s", Field: "Reading", Aggregate: "max", Interval: 3600}); err != nil {
		t.Fatal(err)
	}
	closeBuckets(t, db, fixtureN0, 48*3600)
	q, err := Parse(`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 172800 GROUP BY time(1h), "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := db.execView(context.Background(), db.view.Load(), q)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Stats.Tier != "Power_max_300s_max_3600s" {
		t.Fatalf("served from %q, want the chained 1h tier", planned.Stats.Tier)
	}
	sameResult(t, planned, raw, "chained")
	if planned.Stats.PointsScanned*10 >= raw.Stats.PointsScanned {
		t.Fatalf("chained tier scanned %d vs raw %d — want >=10x cheaper",
			planned.Stats.PointsScanned, raw.Stats.PointsScanned)
	}
}

// TestPlannerCountsMergedGroups: a tiered answer reports one group per
// output group, as the raw scan does, not the tier side's groups plus
// the raw side's.
func TestPlannerCountsMergedGroups(t *testing.T) {
	db := rollupFixture(t, 2, 48*60)
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	// A write into the fixture's last 5 m bucket closes every bucket
	// before it; the query's last hour is answered raw.
	closeBuckets(t, db, fixtureN0, 48*3600-30)
	q, err := Parse(`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 172800 GROUP BY time(1h), "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := db.execView(context.Background(), db.view.Load(), q)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Stats.Tier == "" {
		t.Fatal("planner never engaged")
	}
	sameResult(t, planned, raw, "groups")
	if planned.Stats.Groups != 2 || raw.Stats.Groups != 2 {
		t.Fatalf("groups: planned %d, raw %d; want 2 output groups each", planned.Stats.Groups, raw.Stats.Groups)
	}
}

// TestExecNoRewriteBypassesPlanner checks the raw reference every
// equivalence test here compares against: on a query Exec rewrites,
// execView never consults a tier, and still answers identically.
func TestExecNoRewriteBypassesPlanner(t *testing.T) {
	db := Open(Options{})
	var pts []Point
	for i := 0; i < 120; i++ {
		pts = append(pts, Point{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", "n0"}},
			Fields:      map[string]Value{"Reading": Float(float64(i % 13))},
			Time:        int64(i * 60),
		})
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	closeBuckets(t, db, Tags{{"NodeId", "n0"}}, 7200)
	q, err := Parse(`SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 7200 GROUP BY time(10m)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tier == "" {
		t.Fatal("planner never engaged on an eligible query")
	}
	raw, err := db.execView(context.Background(), db.view.Load(), q)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Stats.Tier != "" {
		t.Fatalf("execView served tier %q", raw.Stats.Tier)
	}
	sameResult(t, res, raw, "bypass")
}

// TestPlannerUnalignedStartFallsBack pins the clipping hazard: a Start
// inside a tier bucket must not be rewritten (the bucket's tier row
// folds in raw samples before Start), so the planner falls back to raw.
func TestPlannerUnalignedStartFallsBack(t *testing.T) {
	db := rollupFixture(t, 1, 60)
	if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	closeBuckets(t, db, fixtureN0, 3600)
	q, err := Parse(`SELECT max("Reading") FROM "Power" WHERE time >= 60 AND time < 3600 GROUP BY time(5m)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tier != "" {
		t.Fatalf("unaligned start rewritten to tier %q", res.Stats.Tier)
	}
	raw, err := db.execView(context.Background(), db.view.Load(), q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, raw, "unaligned")
}

// plannerPropertyDB builds a 2-node, 6-hour workload with random
// integer-valued readings and random gaps, and registers one 5-minute
// tier per chainable aggregate.
func plannerPropertyDB(t testing.TB, seed int64) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := Open(Options{BlockSize: 64})
	var pts []Point
	for n := 0; n < 2; n++ {
		for i := 0; i < 6*60; i++ {
			if rng.Intn(10) == 0 {
				continue // gaps: empty buckets must agree too
			}
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{"NodeId", fmt.Sprintf("n%d", n)}},
				Fields:      map[string]Value{"Reading": Float(float64(rng.Intn(1000)))},
				Time:        int64(i * 60),
			})
		}
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	for _, agg := range []string{"max", "min", "sum", "count", "mean"} {
		if err := db.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: agg, Interval: 300}); err != nil {
			t.Fatal(err)
		}
	}
	closeBuckets(t, db, Tags{{"NodeId", "n0"}}, 6*3600)
	return db
}

// TestPlannerEquivalenceProperty is the randomized equivalence check:
// over random aggregates, GROUP BY widths, and ranges, the planner's
// answer must be indistinguishable from the forced raw scan.
func TestPlannerEquivalenceProperty(t *testing.T) {
	db := plannerPropertyDB(t, 1)
	rng := rand.New(rand.NewSource(2))
	aggs := []string{"max", "min", "sum", "count", "mean"}
	groups := []int64{300, 600, 900, 1800}
	rewrites := 0
	for trial := 0; trial < 200; trial++ {
		agg := aggs[rng.Intn(len(aggs))]
		g := groups[rng.Intn(len(groups))]
		start := int64(rng.Intn(24)) * 300
		if rng.Intn(5) == 0 {
			start += int64(rng.Intn(300)) // unaligned: must fall back, still agree
		}
		end := start + int64(1+rng.Intn(48))*300
		q := &Query{
			Measurement: "Power",
			Fields:      []FieldExpr{{Func: agg, Field: "Reading"}},
			Start:       start,
			End:         end,
			GroupByTime: g,
		}
		if rng.Intn(2) == 0 {
			q.GroupByTags = []string{"NodeId"}
		}
		ctx := fmt.Sprintf("trial %d: %s time(%ds) [%d,%d) tags=%v", trial, agg, g, start, end, q.GroupByTags)
		planned, err := db.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		raw, err := db.execView(context.Background(), db.view.Load(), q)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		sameResult(t, planned, raw, ctx)
		if planned.Stats.Tier != "" {
			rewrites++
		}
	}
	if rewrites == 0 {
		t.Fatal("planner never engaged across 200 trials — property test is vacuous")
	}
	t.Logf("planner served %d/200 trials from a tier", rewrites)
}

// FuzzRollupPlanner drives the planner with fuzz-chosen aggregate,
// bucket width, and range against a fixed tiered workload, asserting
// exact agreement with the raw scan on every input.
func FuzzRollupPlanner(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(0), int64(3600))
	f.Add(uint8(4), uint8(0), int64(300), int64(7200))
	f.Add(uint8(2), uint8(3), int64(-600), int64(math.MaxInt64))
	f.Add(uint8(3), uint8(2), int64(150), int64(5000))
	db := plannerPropertyDB(f, 3)
	aggs := []string{"max", "min", "sum", "count", "mean"}
	groups := []int64{300, 600, 900, 1800}
	f.Fuzz(func(t *testing.T, aggSel, gSel uint8, start, end int64) {
		if end <= start {
			return
		}
		q := &Query{
			Measurement: "Power",
			Fields:      []FieldExpr{{Func: aggs[int(aggSel)%len(aggs)], Field: "Reading"}},
			Start:       start,
			End:         end,
			GroupByTime: groups[int(gSel)%len(groups)],
			GroupByTags: []string{"NodeId"},
		}
		planned, err := db.Exec(context.Background(), q)
		if err != nil {
			return // invalid range combinations are rejected identically either way
		}
		raw, err := db.execView(context.Background(), db.view.Load(), q)
		if err != nil {
			t.Fatalf("raw path rejected what the planner accepted: %v", err)
		}
		sameResult(t, planned, raw, fmt.Sprintf("fuzz agg=%d g=%d [%d,%d)", aggSel, gSel, start, end))
	})
}
