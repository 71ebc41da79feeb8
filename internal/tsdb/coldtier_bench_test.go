package tsdb

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
)

// The bounded-footprint workload: the paper's long-horizon archive
// case the cold tier targets. A month of 60-second samples for a few
// nodes, sealed aggressively, then spilled until compressed resident
// bytes fit a budget ~10x smaller than the sealed set. Queries over
// the spilled range must read through the segment files and match a
// fully resident twin bit for bit.
const (
	benchColdNodes   = 4
	benchColdPerNode = 30 * 24 * 60 // 30d at 60s cadence
	benchColdBudget  = 64 * 1024    // compressed resident budget
	benchColdQuery   = `SELECT max("Reading") FROM "Power" WHERE time >= 0 AND time < 2592000 GROUP BY time(1h), "NodeId"`
)

var (
	benchColdOnce     sync.Once
	benchColdDB       *DB // spilled, budget-bounded
	benchColdResident *DB // identical data, never spilled
)

// benchColdPoints builds the deterministic workload; values vary deep
// in the mantissa so blocks carry real compressed weight.
func benchColdPoints() []Point {
	pts := make([]Point, 0, benchColdNodes*benchColdPerNode)
	for n := 0; n < benchColdNodes; n++ {
		node := Tags{{"NodeId", nodeName(n)}}
		for i := 0; i < benchColdPerNode; i++ {
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        node,
				Fields:      map[string]Value{"Reading": Float(float64(200+(i*7)%150) * 1.000001)},
				Time:        int64(i * 60),
			})
		}
	}
	return pts
}

// benchColdFixture builds (once) the spilled database and its fully
// resident twin. Tiny decode caches (four decoded blocks) keep every
// timed scan honest: the cold engine re-reads from disk, the resident
// engine re-decodes from memory, so the ratio isolates the pread cost.
func benchColdFixture(tb testing.TB) (*DB, *DB) {
	benchColdOnce.Do(func() {
		dir, err := os.MkdirTemp("", "monster-bench-cold-")
		if err != nil {
			tb.Fatal(err)
		}
		cold := Open(Options{
			BlockSize:            128,
			DecodeCacheBytes:     8 * 1024,
			ColdDir:              dir,
			ColdMaxResidentBytes: benchColdBudget,
		})
		resident := Open(Options{
			BlockSize:        128,
			DecodeCacheBytes: 8 * 1024,
		})
		pts := benchColdPoints()
		if err := cold.WritePoints(pts); err != nil {
			tb.Fatal(err)
		}
		if err := resident.WritePoints(pts); err != nil {
			tb.Fatal(err)
		}
		// Age pass disabled (MinInt64 cutoff): the budget pass alone
		// spills oldest-first until compressed resident bytes fit.
		if _, err := cold.SpillCold(math.MinInt64); err != nil {
			tb.Fatal(err)
		}
		benchColdDB, benchColdResident = cold, resident
	})
	return benchColdDB, benchColdResident
}

// BenchmarkColdScan times the dashboard query reading through the
// cold tier (tiny decode cache: every pass pays pread + decode).
func BenchmarkColdScan(b *testing.B) {
	cold, _ := benchColdFixture(b)
	q, err := Parse(benchColdQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cold.Exec(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResidentScan times the same query against the twin whose
// sealed blocks never left memory (every pass pays decode only).
func BenchmarkResidentScan(b *testing.B) {
	_, resident := benchColdFixture(b)
	q, err := Parse(benchColdQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resident.Exec(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchColdTierJSON writes BENCH_coldtier.json when the BENCH_JSON
// env var names the output path (the `make bench-json` entry point).
// The acceptance gates live here: compressed resident bytes at or
// under the configured budget after the spill, and the cold-tier scan
// answering bit-identically to the fully resident twin. Only counts
// that repeat exactly are recorded; the cold/resident latency ratio is
// what BenchmarkColdScan and BenchmarkResidentScan print.
func TestBenchColdTierJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set; artifact generation only")
	}

	cold, resident := benchColdFixture(t)
	cs := cold.ColdStats()
	if !cs.Enabled || cs.BlocksCold == 0 {
		t.Fatalf("fixture spilled nothing: %+v", cs)
	}
	if cs.ResidentBytes > cs.BudgetBytes {
		t.Errorf("compressed resident %d bytes over the %d budget", cs.ResidentBytes, cs.BudgetBytes)
	}

	coldRes, err := cold.Query(benchColdQuery)
	if err != nil {
		t.Fatal(err)
	}
	residentRes, err := resident.Query(benchColdQuery)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, coldRes, residentRes, "cold-tier dashboard")
	if coldRes.Stats.BlocksFromDisk == 0 {
		t.Error("cold scan read nothing from disk; gate is vacuous")
	}

	out := map[string]any{
		"workload":              "bounded footprint: 30d of 60s samples, 4 nodes, budget-pass spill",
		"raw_points":            benchColdNodes * benchColdPerNode,
		"budget_bytes":          cs.BudgetBytes,
		"resident_bytes":        cs.ResidentBytes,
		"resident_blocks":       cs.ResidentBlocks,
		"blocks_cold":           cs.BlocksCold,
		"cold_bytes":            cs.ColdBytes,
		"cold_files":            cs.Files,
		"cold_file_bytes":       cs.FileBytes,
		"spills":                cs.Spills,
		"blocks_from_disk":      coldRes.Stats.BlocksFromDisk,
		"results_identical":     true, // sameResult above is fatal on any mismatch
		"resident_under_budget": cs.ResidentBytes <= cs.BudgetBytes,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d/%d compressed bytes resident, %d blocks cold",
		path, cs.ResidentBytes, cs.BudgetBytes, cs.BlocksCold)
}
