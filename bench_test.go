// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per artifact, at reduced "quick" scale so
// `go test -bench=.` completes in minutes; run `go run
// ./cmd/experiments -run all` for the full paper-scale sweep), plus
// micro-benchmarks of the real data-path operations and ablation
// benchmarks for the design decisions called out in DESIGN.md.
package monster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"monster"
)

// benchArtifact runs one registered experiment per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := monster.RunExperiment(id, true)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

// --- Section III / IV claims and tables ---

func BenchmarkClaimBMCSweep(b *testing.B)    { benchArtifact(b, "claim-bmc-latency") }
func BenchmarkClaimDailyVolume(b *testing.B) { benchArtifact(b, "claim-datavolume") }
func BenchmarkTable3Hosts(b *testing.B)      { benchArtifact(b, "table3") }
func BenchmarkTable4Bandwidth(b *testing.B)  { benchArtifact(b, "table4") }

// --- Evaluation figures ---

func BenchmarkFig6Timeline(b *testing.B)      { benchArtifact(b, "fig6") }
func BenchmarkFig7Radar(b *testing.B)         { benchArtifact(b, "fig7") }
func BenchmarkFig8Trend(b *testing.B)         { benchArtifact(b, "fig8") }
func BenchmarkFig9Clustering(b *testing.B)    { benchArtifact(b, "fig9") }
func BenchmarkFig10Baseline(b *testing.B)     { benchArtifact(b, "fig10") }
func BenchmarkFig11Breakdown(b *testing.B)    { benchArtifact(b, "fig11") }
func BenchmarkFig12Devices(b *testing.B)      { benchArtifact(b, "fig12") }
func BenchmarkFig13SchemaVolume(b *testing.B) { benchArtifact(b, "fig13") }
func BenchmarkFig14Schema(b *testing.B)       { benchArtifact(b, "fig14") }
func BenchmarkFig15Concurrency(b *testing.B)  { benchArtifact(b, "fig15") }
func BenchmarkFig16Cumulative(b *testing.B)   { benchArtifact(b, "fig16") }
func BenchmarkFig17Transmission(b *testing.B) { benchArtifact(b, "fig17") }
func BenchmarkFig18Compression(b *testing.B)  { benchArtifact(b, "fig18") }
func BenchmarkFig19Compressed(b *testing.B)   { benchArtifact(b, "fig19") }

// --- Real data-path micro-benchmarks ---

var benchStart = time.Date(2020, 4, 20, 12, 0, 0, 0, time.UTC)

// seededSystem builds a system with `minutes` of collected telemetry.
func seededSystem(b *testing.B, nodes int, minutes int) *monster.System {
	b.Helper()
	sys := monster.New(monster.Config{Nodes: nodes, Seed: 1})
	if err := sys.AdvanceCollecting(context.Background(), time.Duration(minutes)*time.Minute); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkTSDBWriteBatch measures raw storage ingest (points/op
// reported via bytes metric).
func BenchmarkTSDBWriteBatch(b *testing.B) {
	const batch = 1000
	pts := make([]monster.Point, batch)
	for i := range pts {
		pts[i] = monster.Point{
			Measurement: "Power",
			Tags:        monster.Tags{{Key: "NodeId", Value: fmt.Sprintf("10.101.1.%d", i%60+1)}, {Key: "Label", Value: "NodePower"}},
			Fields:      map[string]monster.Value{"Reading": {F: float64(i)}},
			Time:        int64(i),
		}
	}
	db := monster.OpenDB(monster.DBOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pts {
			pts[j].Time = int64(i*batch + j)
		}
		if err := db.WritePoints(pts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch), "points/op")
}

// BenchmarkTSDBQueryAggregate measures the paper-shaped aggregation
// query against one node-day of data.
func BenchmarkTSDBQueryAggregate(b *testing.B) {
	db := monster.OpenDB(monster.DBOptions{})
	var pts []monster.Point
	for i := 0; i < 1440; i++ {
		pts = append(pts, monster.Point{
			Measurement: "Power",
			Tags:        monster.Tags{{Key: "NodeId", Value: "10.101.1.1"}, {Key: "Label", Value: "NodePower"}},
			Fields:      map[string]monster.Value{"Reading": {F: float64(200 + i%50)}},
			Time:        benchStart.Unix() + int64(i*60),
		})
	}
	if err := db.WritePoints(pts); err != nil {
		b.Fatal(err)
	}
	stmt := `SELECT max("Reading") FROM "Power" WHERE "NodeId" = '10.101.1.1' AND "Label" = 'NodePower' AND time >= '2020-04-20T12:00:00Z' AND time < '2020-04-21T12:00:00Z' GROUP BY time(5m)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(stmt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 1 {
			b.Fatal("no data")
		}
	}
}

// BenchmarkCollectorCycle measures one full real collection cycle
// (BMC sweep over the in-process fleet + scheduler query +
// pre-processing + batched write) for a 32-node cluster.
func BenchmarkCollectorCycle(b *testing.B) {
	sys := seededSystem(b, 32, 2)
	ctx := context.Background()
	now := sys.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Minute)
		if _, err := sys.Collector.CollectOnce(ctx, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuilderFetch is the paper's optimization ladder at 64 nodes
// × 10 metrics × 1 h: the previous builder (one query per node-metric
// pair, serial) and the optimized builder (batched multi-node queries
// on the 8-worker pool). The EXPERIMENTS.md baseline numbers come from
// this benchmark.
func BenchmarkBuilderFetch(b *testing.B) {
	for _, rung := range []struct {
		name       string
		concurrent bool
	}{{"sequential", false}, {"concurrent8", true}} {
		b.Run(rung.name, func(b *testing.B) {
			sys := monster.New(monster.Config{Nodes: 64, Seed: 1, ConcurrentQueries: rung.concurrent})
			if err := sys.AdvanceCollecting(context.Background(), time.Hour); err != nil {
				b.Fatal(err)
			}
			req := monster.Request{
				Start: sys.Config.Start, End: sys.Now(), Interval: 5 * time.Minute, Aggregate: "max",
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.Builder.Fetch(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZlibResponse measures real compression of a real builder
// response (the Fig 18 path).
func BenchmarkZlibResponse(b *testing.B) {
	sys := seededSystem(b, 16, 60)
	resp, _, err := sys.Builder.Fetch(context.Background(), monster.Request{
		Start: sys.Config.Start, End: sys.Now(), Interval: time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	body, err := monster.EncodeResponse(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monster.Compress(body, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansHostGroups measures the Fig 9 clustering at paper
// scale (467 nodes × 9 dims × k=7).
func BenchmarkKMeansHostGroups(b *testing.B) {
	vecs := make([][]float64, 467)
	for i := range vecs {
		v := make([]float64, 9)
		for d := range v {
			v[d] = float64((i*7+d*13)%100) / 100
		}
		vecs[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monster.KMeans(vecs, monster.KMeansOptions{K: 7, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design decisions from DESIGN.md §6) ---

// BenchmarkAblationBatchWrites compares batched vs per-point TSDB
// writes for one collection cycle's worth of points.
func BenchmarkAblationBatchWrites(b *testing.B) {
	mkPoints := func(n int, t0 int64) []monster.Point {
		pts := make([]monster.Point, n)
		for i := range pts {
			pts[i] = monster.Point{
				Measurement: "Thermal",
				Tags:        monster.Tags{{Key: "NodeId", Value: fmt.Sprintf("n%d", i%467)}, {Key: "Label", Value: "CPU1Temp"}},
				Fields:      map[string]monster.Value{"Reading": {F: 50}},
				Time:        t0 + int64(i),
			}
		}
		return pts
	}
	b.Run("batched", func(b *testing.B) {
		db := monster.OpenDB(monster.DBOptions{})
		for i := 0; i < b.N; i++ {
			if err := db.WritePoints(mkPoints(5000, int64(i*5000))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-point", func(b *testing.B) {
		db := monster.OpenDB(monster.DBOptions{})
		for i := 0; i < b.N; i++ {
			for _, p := range mkPoints(5000, int64(i*5000)) {
				if err := db.WritePoint(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationZlibLevels compares every compression level, and
// the server default (level 0 selects it), on real response JSON:
// speed vs the Fig 18 ratio. The default was chosen from this curve
// measured on the dash-6h and scan-72h bodies (EXPERIMENTS.md,
// "Columnar to the wire").
func BenchmarkAblationZlibLevels(b *testing.B) {
	sys := seededSystem(b, 16, 30)
	resp, _, err := sys.Builder.Fetch(context.Background(), monster.Request{
		Start: sys.Config.Start, End: sys.Now(), Interval: time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	body, err := monster.EncodeResponse(resp)
	if err != nil {
		b.Fatal(err)
	}
	for level := 0; level <= 9; level++ {
		name := fmt.Sprintf("level%d", level)
		if level == 0 {
			name = "default"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			var ratio float64
			for i := 0; i < b.N; i++ {
				comp, err := monster.Compress(body, level)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(len(comp)) / float64(len(body))
			}
			b.ReportMetric(ratio*100, "%compressed")
		})
	}
}

// BenchmarkAblationSchemaIngest compares ingest volume/speed of the
// two schemas through the real collector.
func BenchmarkAblationSchemaIngest(b *testing.B) {
	for _, schema := range []monster.SchemaVersion{monster.SchemaOptimized, monster.SchemaPrevious} {
		schema := schema
		b.Run(schema.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := monster.New(monster.Config{Nodes: 16, Seed: 1, Schema: schema})
				if err := sys.AdvanceCollecting(context.Background(), 10*time.Minute); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sys.DB.Disk().TotalBytes()), "bytes")
			}
		})
	}
}

// BenchmarkAblationRollup compares a coarse-interval query against the
// raw measurement vs against its materialized rollup.
func BenchmarkAblationRollup(b *testing.B) {
	db := monster.OpenDB(monster.DBOptions{})
	var pts []monster.Point
	for n := 0; n < 16; n++ {
		for i := 0; i < 24*60; i++ { // one day, minutely
			pts = append(pts, monster.Point{
				Measurement: "Power",
				Tags:        monster.Tags{{Key: "NodeId", Value: fmt.Sprintf("n%d", n)}, {Key: "Label", Value: "NodePower"}},
				Fields:      map[string]monster.Value{"Reading": {F: float64(200 + i%50)}},
				Time:        benchStart.Unix() + int64(i*60),
			})
		}
	}
	if err := db.WritePoints(pts); err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterRollup(monster.RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 3600}); err != nil {
		b.Fatal(err)
	}
	// One reading past the day closes its last hourly bucket.
	if err := db.WritePoint(monster.Point{
		Measurement: "Power",
		Tags:        monster.Tags{{Key: "NodeId", Value: "n0"}, {Key: "Label", Value: "NodePower"}},
		Fields:      map[string]monster.Value{"Reading": {F: 200}},
		Time:        benchStart.Unix() + 24*3600,
	}); err != nil {
		b.Fatal(err)
	}
	rawStmt := fmt.Sprintf(`SELECT max("Reading") FROM "Power" WHERE "NodeId" = 'n0' AND time >= %d AND time < %d GROUP BY time(1h)`,
		benchStart.Unix(), benchStart.Unix()+24*3600)
	rolledStmt := fmt.Sprintf(`SELECT "Reading" FROM "Power_max_3600s" WHERE "NodeId" = 'n0' AND time >= %d AND time < %d`,
		benchStart.Unix(), benchStart.Unix()+24*3600)
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(rawStmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rollup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(rolledStmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHealthFilter compares storing every health sample
// (the previous schema's behaviour) against transition-only storage,
// reporting the stored-point delta.
func BenchmarkAblationHealthFilter(b *testing.B) {
	for _, storeAll := range []bool{false, true} {
		storeAll := storeAll
		name := "transitions-only"
		if storeAll {
			name = "every-sample"
		}
		b.Run(name, func(b *testing.B) {
			var healthPoints float64
			for i := 0; i < b.N; i++ {
				sys := monster.New(monster.Config{Nodes: 8, Seed: 1, StoreAllHealth: storeAll})
				if err := sys.AdvanceCollecting(context.Background(), 10*time.Minute); err != nil {
					b.Fatal(err)
				}
				r, err := sys.DB.Query(`SELECT count("Status") FROM "Health"`)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Series) > 0 {
					healthPoints = float64(r.Series[0].Rows()[0].Values[0].I)
				}
			}
			b.ReportMetric(healthPoints, "health-points")
		})
	}
}

// BenchmarkLineProtocolParse measures line-protocol ingest of one
// collection cycle's worth of lines.
func BenchmarkLineProtocolParse(b *testing.B) {
	db := monster.OpenDB(monster.DBOptions{})
	var pts []monster.Point
	for i := 0; i < 1000; i++ {
		pts = append(pts, monster.Point{
			Measurement: "Power",
			Tags:        monster.Tags{{Key: "NodeId", Value: fmt.Sprintf("10.101.1.%d", i%60+1)}, {Key: "Label", Value: "NodePower"}},
			Fields:      map[string]monster.Value{"Reading": {F: float64(200 + i)}},
			Time:        int64(i),
		})
	}
	_ = db
	data := monster.FormatLineProtocol(pts)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monster.ParseLineProtocol(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTelemetry compares the real collector's sweep over
// four category GETs (13G firmware) vs one Telemetry Service
// MetricReport per node (the paper's §VI future-work model).
func BenchmarkAblationTelemetry(b *testing.B) {
	for _, telemetry := range []bool{false, true} {
		telemetry := telemetry
		name := "four-gets"
		if telemetry {
			name = "metric-report"
		}
		b.Run(name, func(b *testing.B) {
			sys := monster.New(monster.Config{Nodes: 32, Seed: 1, Telemetry: telemetry})
			ctx := context.Background()
			now := sys.Now()
			var requests int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Minute)
				if _, err := sys.Collector.CollectOnce(ctx, now); err != nil {
					b.Fatal(err)
				}
				requests = sys.Collector.Stats().BMCRequests
			}
			b.ReportMetric(float64(requests)/float64(b.N), "requests/cycle")
		})
	}
}
