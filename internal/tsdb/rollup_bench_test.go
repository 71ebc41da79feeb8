package tsdb

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"
)

// The month-long-dashboard workload: the paper's dashboard case a tier
// rewrite targets. 30 days of 60-second samples for a handful of nodes,
// rolled up raw -> 5m -> 1h, queried at 1-hour buckets over the full
// month — the query every monitoring UI issues on load.
const (
	benchRollupNodes   = 4
	benchRollupDays    = 30
	benchRollupPerNode = benchRollupDays * 24 * 60 // 60s cadence
	benchRollupQuery   = `SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 2592000 GROUP BY time(1h), "NodeId"`
)

var (
	benchRollupOnce sync.Once
	benchRollupDB   *DB
)

// benchRollupFixture builds (once) the month-long tiered database.
func benchRollupFixture(tb testing.TB) *DB {
	benchRollupOnce.Do(func() {
		db := Open(Options{})
		pts := make([]Point, 0, benchRollupPerNode)
		for n := 0; n < benchRollupNodes; n++ {
			node := Tags{{"NodeId", nodeName(n)}, {"Label", "NodePower"}}
			pts = pts[:0]
			for i := 0; i < benchRollupPerNode; i++ {
				pts = append(pts, Point{
					Measurement: "Power",
					Tags:        node,
					Fields:      map[string]Value{"Reading": Float(float64(200 + (i*7)%150))},
					Time:        int64(i * 60),
				})
			}
			if err := db.WritePoints(pts); err != nil {
				tb.Fatal(err)
			}
		}
		for _, spec := range []RollupSpec{
			{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300},
			{Source: "Power_max_300s", Field: "Reading", Aggregate: "max", Interval: 3600},
		} {
			if err := db.RegisterRollup(spec); err != nil {
				tb.Fatal(err)
			}
		}
		// One point at the query's end closes every bucket of the month;
		// its own bucket, past the query, stays open.
		closeBuckets(tb, db, Tags{{"NodeId", nodeName(0)}, {"Label", "NodePower"}}, benchRollupPerNode*60)
		benchRollupDB = db
	})
	return benchRollupDB
}

func nodeName(n int) string { return string(rune('a' + n)) }

// BenchmarkTieredDashboard times the month-long dashboard query with
// the planner serving it from the 1h tier.
func BenchmarkTieredDashboard(b *testing.B) {
	db := benchRollupFixture(b)
	q, err := Parse(benchRollupQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRawDashboard times the same query with the rewrite bypassed
// — the full raw scan every pre-tier engine build paid.
func BenchmarkRawDashboard(b *testing.B) {
	db := benchRollupFixture(b)
	q, err := Parse(benchRollupQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.execView(context.Background(), db.view.Load(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchRollupJSON writes BENCH_rollup.json when the BENCH_JSON env
// var names the output path (the `make bench-json` entry point): the
// month-long-dashboard scan reduction, plus a cold-scan cache stress
// showing resident decoded bytes honoring the budget. Only counts that
// repeat exactly are recorded; timings belong to cmd/loadgen, which
// bounds their noise (BenchmarkTieredDashboard/BenchmarkRawDashboard
// remain for interactive use).
// The acceptance gates live here too: >=50x fewer points scanned with
// an identical answer, and the cache never over budget.
func TestBenchRollupJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set; artifact generation only")
	}

	db := benchRollupFixture(t)
	q, err := Parse(benchRollupQuery)
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
	sameResult(t, planned, raw, "month-long dashboard")
	if planned.Stats.Tier == "" {
		t.Fatal("planner did not engage on the dashboard query")
	}
	reduction := float64(raw.Stats.PointsScanned) / float64(planned.Stats.PointsScanned)
	if reduction < 50 {
		t.Errorf("scan reduction %.1fx below the 50x target (%d vs %d points)",
			reduction, planned.Stats.PointsScanned, raw.Stats.PointsScanned)
	}

	// Cold-scan cache stress: a separate sealed engine whose decoded
	// working set (the 46,848 of 48,000 regular float points that seal;
	// the readings are not float32-exact, so 8 B each) is ~4.9x the
	// budget; repeated full scans must stay resident-bounded by evicting.
	// The working set is what an unbounded cache holds after one scan of
	// the same data.
	const cacheBudget = 75 * 1024
	var pts []Point
	for i := 0; i < 48000; i++ {
		pts = append(pts, Point{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", "n0"}},
			Fields:      map[string]Value{"Reading": Float(float64(i%997) + 0.1)},
			Time:        int64(i * 60),
		})
	}
	open := func(budget int64) *DB {
		db := Open(Options{BlockSize: 128, DecodeCacheBytes: budget})
		if err := db.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
		return db
	}
	whole := open(1 << 30)
	if _, err := whole.Query(`SELECT count("Reading") FROM "Power"`); err != nil {
		t.Fatal(err)
	}
	decoded := whole.CacheStats().ResidentBytes
	if decoded <= cacheBudget {
		t.Errorf("decoded working set %d bytes fits the %d budget: nothing to evict", decoded, cacheBudget)
	}
	stress := open(cacheBudget)
	for pass := 0; pass < 3; pass++ {
		if _, err := stress.Query(`SELECT count("Reading") FROM "Power"`); err != nil {
			t.Fatal(err)
		}
		if cs := stress.CacheStats(); cs.ResidentBytes > cacheBudget {
			t.Errorf("pass %d: cache resident %d bytes over the %d budget", pass, cs.ResidentBytes, cacheBudget)
		}
	}
	cs := stress.CacheStats()

	out := map[string]any{
		"workload":               "month-long dashboard: 30d of 60s samples, 4 nodes, GROUP BY time(1h)",
		"tiers":                  []string{"Power_max_300s", "Power_max_300s_max_3600s"},
		"raw_points":             benchRollupNodes * benchRollupPerNode,
		"tier_served":            planned.Stats.Tier,
		"points_scanned_tiered":  planned.Stats.PointsScanned,
		"points_scanned_raw":     raw.Stats.PointsScanned,
		"scan_reduction":         reduction,
		"tier_raw_equivalent":    planned.Stats.TierRawEquivalent,
		"results_identical":      true, // sameResult above is fatal on any mismatch
		"cache_budget_bytes":     cs.BudgetBytes,
		"cache_resident_bytes":   cs.ResidentBytes,
		"cache_evictions":        cs.Evictions,
		"cache_hits":             cs.Hits,
		"cache_misses":           cs.Misses,
		"cache_hit_rate":         float64(cs.Hits) / float64(cs.Hits+cs.Misses),
		"cache_workload_points":  48000,
		"cache_workload_decoded": decoded,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %.0fx fewer points scanned, cache %d/%d bytes resident",
		path, reduction, cs.ResidentBytes, cs.BudgetBytes)
}
