package tsdb

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestWriteBatchAllocsPerPoint gates the write path's steady-state
// cost: a batch of one point for each of 640 existing series (one
// field, tags given out of order) allocates per point only the batch's
// copies of the series, its field slice and its column (96 + 24 + 176
// bytes), plus the amortised growth of the tails' values, the list of
// owned columns, the once-per-batch shard copy and the batch's list of
// each point's series, which the WAL names points by (8 bytes) — about
// 3.1 allocations and 396 bytes. The points arrive on a 60 s cadence, so
// the tails keep no time array at all. Nothing per point may go to
// resolving the series or to recording what the batch owns: a map of
// owned copies costs no allocation per point but ~120 bytes per point,
// and a map of fields per series two allocations.
func TestWriteBatchAllocsPerPoint(t *testing.T) {
	const nSeries = 640
	db := Open(Options{})
	pts := make([]Point, nSeries)
	for i := range pts {
		pts[i] = Point{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", fmt.Sprintf("10.101.%d.%d", i/64, i%64)}, {"Label", "NodePower"}},
			Fields:      map[string]Value{"Reading": Float(float64(i))},
		}
	}
	var ts int64
	write := func() {
		ts += 60
		for i := range pts {
			pts[i].Time = ts
		}
		if err := db.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
	}
	write() // creates the series
	perPoint := testing.AllocsPerRun(50, write) / nSeries
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 50 {
		write()
	}
	runtime.ReadMemStats(&after)
	bytesPerPoint := float64(after.TotalAlloc-before.TotalAlloc) / 50 / nSeries
	t.Logf("%.2f allocations, %.1f bytes per point", perPoint, bytesPerPoint)
	if perPoint > 4 || bytesPerPoint > 435 {
		t.Fatalf("steady-state write allocates %.2f times and %.0f bytes per point, want <= 4 and <= 435", perPoint, bytesPerPoint)
	}
	if cs := db.Compression(); cs.TailPoints != 102*nSeries || cs.TailExplicitPoints != 0 {
		t.Fatalf("on-cadence tails: %d points, %d of them with explicit times; want %d and 0", cs.TailPoints, cs.TailExplicitPoints, 102*nSeries)
	}
}

// TestWritePathMatchesReference drives the write path with seeded
// random batches — tags given sorted and unsorted, a field set that
// grows across batches so fields are inserted mid-slice, the same
// series several times in one batch, out-of-order points behind sealed
// blocks, and a range clear that empties one field of a two-field
// series — and requires every answer to be bit-identical to
// refAggregate. Values are multiples of 1/4, so sums are exact in any
// order. It also requires the stored identities to survive later
// batches reusing the batch's scratch buffers and the caller's tag
// slices being overwritten after each write.
func TestWritePathMatchesReference(t *testing.T) {
	const nSeries, interval, shardDuration = 5, 300, 3000
	fieldOrder := []string{"m", "c", "x", "a", "f"} // each inserted between or before the earlier ones
	canonical := func(s int) Tags {
		tags := Tags{{"id", fmt.Sprintf("s%d", s)}, {"rack", fmt.Sprintf("rack-%d", s%2)}}
		if s%2 == 1 {
			tags = append(tags, Tag{"zone", strings.Repeat("z", s)})
		}
		return tags
	}
	// pairFields reports whether any shard's "pair" series has fields
	// m and c.
	pairFields := func(db *DB) (m, c bool) {
		for _, sh := range db.view.Load().shards {
			if sr := sh.series["m,id=pair,rack=rack-9"]; sr != nil {
				m, c = m || sr.field("m") != nil, c || sr.field("c") != nil
			}
		}
		return m, c
	}
	// behindSealed reports whether a point of pts lands before the last
	// sealed block of its column in the published view.
	behindSealed := func(db *DB, pts []Point) bool {
		v := db.view.Load()
		for _, p := range pts {
			sh := v.shards[p.Time-mod(p.Time, shardDuration)]
			if sh == nil || sh.series[pointKey(&p)] == nil {
				continue
			}
			for f := range p.Fields {
				col := sh.series[pointKey(&p)].field(f)
				if col != nil && len(col.blocks) > 0 && p.Time < col.blocks[len(col.blocks)-1].maxT {
					return true
				}
			}
		}
		return false
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 3))
		db := Open(Options{ShardDuration: shardDuration, BlockSize: 8})
		ref := map[string][]refPoint{}
		var now int64
		var cleared bool
		unsealed := 0
		for batchNo := 0; batchNo < 40; batchNo++ {
			nFields := 1 + batchNo*len(fieldOrder)/40
			var pts []Point
			for k := 2 + rng.Intn(12); k > 0; k-- {
				s := rng.Intn(nSeries)
				now += int64(rng.Intn(40))
				ts := now
				if batchNo > 10 && rng.Intn(8) == 0 {
					ts = int64(rng.Intn(int(now) / 2)) // behind sealed blocks
				}
				tags := canonical(s)
				if rng.Intn(2) == 0 {
					rng.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
				}
				fields := map[string]Value{}
				for _, f := range fieldOrder[:nFields] {
					if len(fields) == 0 || rng.Intn(3) > 0 {
						v := float64(rng.Intn(4000)-2000) / 4
						fields[f] = Float(v)
						ref[f] = append(ref[f], refPoint{series: s, t: ts, v: v})
					}
				}
				pts = append(pts, Point{Measurement: "m", Tags: tags, Fields: fields, Time: ts})
			}
			if batchNo == 25 {
				// A two-field series whose "m" samples all fall inside the
				// cleared range and whose "c" samples do not.
				for i, ts := range []int64{now + 10, now + 20, now + 900} {
					fields := map[string]Value{"c": Float(float64(i))}
					ref["c"] = append(ref["c"], refPoint{series: nSeries, t: ts, v: float64(i)})
					if i < 2 {
						fields["m"] = Float(float64(i))
					}
					pts = append(pts, Point{Measurement: "m", Tags: Tags{{"rack", "rack-9"}, {"id", "pair"}}, Fields: fields, Time: ts})
				}
			}
			sealedBehind := behindSealed(db, pts)
			if err := db.WritePoints(pts); err != nil {
				t.Fatal(err)
			}
			if sealedBehind {
				unsealed++
			}
			for i := range pts {
				for j := range pts[i].Tags {
					pts[i].Tags[j] = Tag{"scribbled", "over"}
				}
			}
			if batchNo == 25 {
				if m, c := pairFields(db); !m || !c {
					t.Fatalf("pair series has fields m %t, c %t before the clear, want both", m, c)
				}
				start, end := now+5, now+600
				if _, err := db.clearRange("m", start, end); err != nil {
					t.Fatal(err)
				}
				for f, rps := range ref {
					ref[f] = slices.DeleteFunc(rps, func(p refPoint) bool { return p.t >= start && p.t < end })
				}
				cleared = true
			}
		}
		if !cleared {
			t.Fatal("the range clear never ran")
		}
		v := db.view.Load()
		if v.stats.BlocksSealed == 0 || unsealed == 0 {
			t.Fatalf("%d blocks sealed, %d out-of-order batches behind sealed data", v.stats.BlocksSealed, unsealed)
		}
		if m, c := pairFields(db); m || !c {
			t.Fatalf("pair series has fields m %t, c %t after the clear, want only c", m, c)
		}
		ids := map[string]int{"pair": nSeries}
		for s := range nSeries {
			ids[fmt.Sprintf("s%d", s)] = s
		}
		for _, f := range fieldOrder {
			for id, s := range ids {
				for _, agg := range []string{"max", "min", "sum", "mean", "count"} {
					stmt := fmt.Sprintf(`SELECT %s(%q) FROM "m" WHERE "id"='%s' AND time >= 0 AND time < %d GROUP BY time(%ds)`, agg, f, id, now+1, interval)
					res, err := db.Query(stmt)
					if err != nil {
						t.Fatal(err)
					}
					got := map[int64]float64{}
					for _, rs := range res.Series {
						for _, row := range rs.Rows() {
							if row.Present[0] {
								got[row.Time], _ = row.Values[0].AsFloat()
							}
						}
					}
					want := refAggregate(ref[f], s, 0, now+1, interval, agg)
					if !maps.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, stmt, got, want)
					}
				}
			}
		}
		// Identities: every stored series and index entry still carries
		// the tags its key was built from.
		mi := v.index["m"]
		for key, tags := range mi.series {
			if seriesKey("m", tags) != key {
				t.Fatalf("index entry %q holds tags %v", key, tags)
			}
		}
		for _, sh := range v.shards {
			for key, sr := range sh.series {
				if sr.key != key || seriesKey(sr.measurement, sr.tags) != key {
					t.Fatalf("series stored under %q has key %q and tags %v", key, sr.key, sr.tags)
				}
			}
		}
		for key, want := range map[string][]string{
			"id":   {"pair", "s0", "s1", "s2", "s3", "s4"},
			"rack": {"rack-0", "rack-1", "rack-9"},
			"zone": {"z", "zzz"},
		} {
			res, err := db.Query(fmt.Sprintf(`SHOW TAG VALUES FROM "m" WITH KEY = %q`, key))
			if err != nil {
				t.Fatal(err)
			}
			if got := rowsOf(t, res); !slices.Equal(got, want) {
				t.Fatalf("SHOW TAG VALUES WITH KEY = %q: %v, want %v", key, got, want)
			}
		}
	}
}

// BenchmarkWriteBatch writes one point to each of 640 series per op,
// the collector's batch shape, for as many minutely cycles as b.N, so
// the tails grow and seal as they do in service. "on-cadence" stamps
// every point on the minute; "drifting" stamps one cycle in eight a
// second late, as the scrape and push receivers' wall clock can, so
// from its eighth cycle each tail keeps its times explicitly. "wal" is
// "on-cadence" with a write-ahead log attached (FsyncNever, so no
// fsync is timed): each batch is also encoded into a log record that
// names every point by its series.
func BenchmarkWriteBatch(b *testing.B) {
	onCadence := func(int64) int64 { return 0 }
	for _, c := range []struct {
		name  string
		drift func(cycle int64) int64
		wal   bool
	}{
		{"on-cadence", onCadence, false},
		{"drifting", func(cycle int64) int64 { return cycle % 8 / 7 }, false},
		{"wal", onCadence, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			const nSeries = 640
			db := Open(Options{})
			if c.wal {
				var err error
				if db, _, err = OpenDurable(Options{}, WALOptions{Dir: b.TempDir(), Policy: FsyncNever}); err != nil {
					b.Fatal(err)
				}
				defer db.CloseWAL()
			}
			pts := make([]Point, nSeries)
			for i := range pts {
				pts[i] = Point{
					Measurement: "Power",
					Tags:        Tags{{"Label", "NodePower"}, {"NodeId", fmt.Sprintf("10.101.%d.%d", i/64, i%64)}},
					Fields:      map[string]Value{"Reading": Float(float64(i))},
				}
			}
			b.ReportAllocs()
			for cycle := int64(0); cycle < int64(b.N); cycle++ {
				for i := range pts {
					pts[i].Time = 60*cycle + c.drift(cycle)
				}
				if err := db.WritePoints(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
