package tsdb

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// benchSeriesStart mirrors bench_test.go's workload epoch
// (2020-04-20T12:00:00Z): one reading per node per minute.
const benchSeriesStart = 1587384000

// benchColumn builds one monotonic HPC column: minute cadence, a power
// reading oscillating in a narrow band — the shape the collector
// produces for every node.
func benchColumn(n int) ([]int64, valueVec) {
	times := make([]int64, n)
	vals := makeVec(vecFloat, n)
	for i := 0; i < n; i++ {
		times[i] = benchSeriesStart + int64(i*60)
		vals.append(Float(200 + float64(i%50)))
	}
	return times, vals
}

// BenchmarkBlockEncode seals DefaultBlockSize-point columns and
// reports the two numbers that matter: ns per point and bytes per
// point on the monotonic workload.
func BenchmarkBlockEncode(b *testing.B) {
	times, vals := benchColumn(DefaultBlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	var bytesOut int64
	for i := 0; i < b.N; i++ {
		blk := sealBlock(timeVec{t: times}, vals)
		bytesOut += int64(len(blk.data))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultBlockSize), "ns/point")
	b.ReportMetric(float64(bytesOut)/float64(int64(b.N)*DefaultBlockSize), "bytes/point")
}

// BenchmarkBlockDecode measures the cold-decode path (the cache is
// deliberately bypassed — a cached decode is a pointer load).
func BenchmarkBlockDecode(b *testing.B) {
	times, vals := benchColumn(DefaultBlockSize)
	blk := sealBlock(timeVec{t: times}, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeBlockData(blk.data, new(decodeBuf)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultBlockSize), "ns/point")
}

// benchScanDB loads nodes*perNode points with the given seal threshold.
func benchScanDB(b testing.TB, blockSize, nodes, perNode int) *DB {
	b.Helper()
	db := Open(Options{ShardDuration: 86400 * 30, BlockSize: blockSize})
	pts := make([]Point, 0, nodes*perNode)
	for n := 0; n < nodes; n++ {
		node := fmt.Sprintf("10.101.1.%d", n)
		for i := 0; i < perNode; i++ {
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{Key: "Label", Value: "NodePower"}, {Key: "NodeId", Value: node}},
				Fields:      map[string]Value{"Reading": Float(200 + float64((n+i)%50))},
				Time:        benchSeriesStart + int64(i*60),
			})
		}
	}
	if err := db.WritePoints(pts); err != nil {
		b.Fatal(err)
	}
	return db
}

// benchScan runs the paper's Section III-D aggregate over the whole
// range; the query decodes (then reuses) every sealed block.
func benchScan(b *testing.B, db *DB) {
	b.Helper()
	q, err := Parse(`SELECT max("Reading") FROM "Power" GROUP BY time(5m), "NodeId"`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkCompressedScan compares warm scans over sealed blocks
// against the same columns left in their raw tails (a seal threshold
// one above the column length). The acceptance target is sealed <=
// 1.3x raw.
func BenchmarkCompressedScan(b *testing.B) {
	const nodes, perNode = 16, 4096
	b.Run("sealed", func(b *testing.B) { benchScan(b, benchScanDB(b, DefaultBlockSize, nodes, perNode)) })
	b.Run("raw", func(b *testing.B) { benchScan(b, benchScanDB(b, perNode+1, nodes, perNode)) })
	b.Run("sealed-cold", func(b *testing.B) {
		// Cold decode on every iteration: rebuild the DB so no block
		// cache survives. Reported for honesty; the warm number above is
		// the steady-state cost.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := benchScanDB(b, DefaultBlockSize, nodes, 1024)
			b.StartTimer()
			q, _ := Parse(`SELECT max("Reading") FROM "Power" GROUP BY time(5m), "NodeId"`)
			if _, err := db.Exec(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchJSON writes BENCH_compression.json when the BENCH_JSON env
// var names the output path (the `make bench-json` entry point). Only
// sizes and counts that repeat exactly are recorded; the encode, decode
// and scan timings are what the benchmarks above print.
func TestBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set; artifact generation only")
	}

	times, vals := benchColumn(DefaultBlockSize)
	blk := sealBlock(timeVec{t: times}, vals)
	bytesPerPoint := float64(len(blk.data)+blockHeaderBytes) / float64(blk.count)
	rawBytesPerPoint := float64(blk.rawBytes) / float64(blk.count)

	const nodes, perNode = 16, 4096
	db := benchScanDB(t, DefaultBlockSize, nodes, perNode)
	cs := db.Compression()

	out := map[string]any{
		"workload":             "monotonic HPC power readings, 60s cadence, 200+i%50 W",
		"block_size":           DefaultBlockSize,
		"bytes_per_point":      bytesPerPoint,
		"raw_bytes_per_point":  rawBytesPerPoint,
		"compression_ratio":    cs.Ratio(),
		"scan_points":          nodes * perNode,
		"blocks_sealed":        db.Stats().BlocksSealed,
		"storage_bytes_raw":    cs.BytesRaw,
		"storage_bytes_sealed": cs.BytesCompressed,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %.2f B/point (raw %.0f), ratio %.2fx", path, bytesPerPoint, rawBytesPerPoint, cs.Ratio())
	if bytesPerPoint > 3 {
		t.Errorf("bytes/point %.2f exceeds the 3 B/point target", bytesPerPoint)
	}
}
