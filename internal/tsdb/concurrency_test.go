package tsdb

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// concurrencyBatch builds one write batch of n points, all carrying the
// batch tag so a reader can check it observed the batch atomically.
func concurrencyBatch(batchNo, n int, t0 int64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Measurement: "m",
			Tags:        Tags{{"batch", fmt.Sprintf("b%04d", batchNo)}, {"node", fmt.Sprintf("n%02d", i%8)}},
			Fields:      map[string]Value{"Reading": Float(float64(batchNo*n + i))},
			Time:        t0 + int64(i),
		}
	}
	return pts
}

// TestSnapshotIsolation hammers the DB with concurrent writers, query
// readers, metadata readers, snapshot serialization, and measurement
// drops, asserting no reader ever observes a half-applied batch: every
// batch writes exactly pointsPerBatch points under a distinct batch
// tag, so any group count other than pointsPerBatch is a torn read.
// Run under -race this also proves the lock-free read path is sound.
func TestSnapshotIsolation(t *testing.T) {
	const (
		batches        = 60
		pointsPerBatch = 48
		readers        = 4
	)
	db := Open(Options{ShardDuration: 1 << 20}) // one shard for all batches
	q := MustParse(`SELECT count("Reading") FROM "m" GROUP BY "batch"`)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			if err := db.WritePoints(concurrencyBatch(b, pointsPerBatch, int64(b))); err != nil {
				t.Errorf("WritePoints: %v", err)
				return
			}
			// Interleave drops of a scratch measurement and snapshot
			// saves with the batch stream.
			if b%7 == 0 {
				if err := db.WritePoint(Point{
					Measurement: "scratch",
					Tags:        Tags{{"node", "n0"}},
					Fields:      map[string]Value{"v": Int(int64(b))},
					Time:        int64(b),
				}); err != nil {
					t.Errorf("WritePoint: %v", err)
					return
				}
				db.DropMeasurement("scratch")
			}
		}
	}()

	saveDir := t.TempDir()
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.SaveFile(filepath.Join(saveDir, fmt.Sprintf("snap%d.mtsd", i%3))); err != nil {
				t.Errorf("SaveFile: %v", err)
				return
			}
			i++
		}
	}()

	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Exec(context.Background(), q)
				if err != nil {
					t.Errorf("Exec: %v", err)
					return
				}
				if res.Stats.SnapshotEpoch < lastEpoch {
					t.Errorf("snapshot epoch went backwards: %d -> %d", lastEpoch, res.Stats.SnapshotEpoch)
					return
				}
				lastEpoch = res.Stats.SnapshotEpoch
				for _, s := range res.Series {
					for _, row := range s.Rows() {
						if n := row.Values[0].I; n != pointsPerBatch {
							t.Errorf("torn batch: group %v has %d points, want %d", s.Tags, n, pointsPerBatch)
							return
						}
					}
				}
				reads.Add(1)
				db.Measurements()
				db.Disk()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if reads.Load() == 0 {
		t.Fatal("readers never completed a query")
	}

	res, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatalf("final Exec: %v", err)
	}
	if got := len(res.Series); got != batches {
		t.Fatalf("final series count = %d, want %d", got, batches)
	}
}

// TestConcurrentWritersAndRetention exercises WritePoints racing with
// DeleteBefore across many shards.
func TestConcurrentWritersAndRetention(t *testing.T) {
	db := Open(Options{ShardDuration: 10})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pts := []Point{{
					Measurement: "m",
					Tags:        Tags{{"w", fmt.Sprintf("w%d", w)}},
					Fields:      map[string]Value{"v": Int(int64(i))},
					Time:        int64(i * 10),
				}}
				if err := db.WritePoints(pts); err != nil {
					t.Errorf("WritePoints: %v", err)
					return
				}
				if i%10 == 9 {
					db.DeleteBefore(int64(i * 5))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParallelExecMatchesSerial checks the worker pool produces results
// identical to serial execution, including under forced wide pools.
func TestParallelExecMatchesSerial(t *testing.T) {
	mk := func(workers int) *DB {
		db := Open(Options{ShardDuration: 3600})
		db.execWorkers = workers
		rng := rand.New(rand.NewSource(7))
		var pts []Point
		for n := 0; n < 40; n++ {
			for i := 0; i < 30; i++ {
				pts = append(pts, Point{
					Measurement: "Power",
					Tags:        Tags{{"NodeId", fmt.Sprintf("node%02d", n)}, {"Label", "System"}},
					Fields:      map[string]Value{"Reading": Float(100 + float64(rng.Intn(200)))},
					Time:        int64(i*60 + rng.Intn(5)),
				})
			}
		}
		if err := db.WritePoints(pts); err != nil {
			t.Fatalf("WritePoints: %v", err)
		}
		return db
	}
	serial := mk(1)
	parallel := mk(16)
	for _, stmt := range []string{
		`SELECT max("Reading") FROM "Power" GROUP BY time(5m), "NodeId", "Label"`,
		`SELECT mean("Reading") FROM "Power" GROUP BY "NodeId"`,
		`SELECT "Reading" FROM "Power" WHERE "NodeId" = 'node03'`,
		`SELECT count("Reading") FROM "Power" GROUP BY time(1m), "NodeId" LIMIT 5`,
	} {
		q := MustParse(stmt)
		rs, err := serial.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("serial %q: %v", stmt, err)
		}
		rp, err := parallel.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("parallel %q: %v", stmt, err)
		}
		if !reflect.DeepEqual(rs.Series, rp.Series) {
			t.Errorf("%q: parallel result differs from serial", stmt)
		}
		if rs.Stats.Rows != rp.Stats.Rows ||
			rs.Stats.PointsScanned != rp.Stats.PointsScanned ||
			rs.Stats.Groups != rp.Stats.Groups {
			t.Errorf("%q: stats differ: serial %+v parallel %+v", stmt, rs.Stats, rp.Stats)
		}
		if rs.Stats.ParallelWorkers != 1 {
			t.Errorf("%q: serial ParallelWorkers = %d, want 1", stmt, rs.Stats.ParallelWorkers)
		}
	}
}

// TestShardStartsSortedInsertion writes shards in shuffled time order
// and checks the shard list stays time-sorted (the sorted-position
// insert in batch.insertShardStart).
func TestShardStartsSortedInsertion(t *testing.T) {
	db := Open(Options{ShardDuration: 100})
	order := rand.New(rand.NewSource(3)).Perm(20)
	for _, i := range order {
		if err := db.WritePoint(Point{
			Measurement: "m",
			Tags:        Tags{{"n", "a"}},
			Fields:      map[string]Value{"v": Int(int64(i))},
			Time:        int64(i * 100),
		}); err != nil {
			t.Fatalf("WritePoint: %v", err)
		}
	}
	stats := db.ShardStats()
	if len(stats) != 20 {
		t.Fatalf("shard count = %d, want 20", len(stats))
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Start <= stats[i-1].Start {
			t.Fatalf("shard starts not sorted: %d then %d", stats[i-1].Start, stats[i].Start)
		}
	}
}

// TestRegexCacheBounded checks the parser's LRU stays within its limit
// and keeps recently used patterns hot.
func TestRegexCacheBounded(t *testing.T) {
	for i := 0; i < reCacheLimit+100; i++ {
		if _, err := compileCachedRegex(fmt.Sprintf("^node%04d$", i)); err != nil {
			t.Fatalf("compileCachedRegex: %v", err)
		}
	}
	if n := reCache.len(); n > reCacheLimit {
		t.Fatalf("regex cache size %d exceeds limit %d", n, reCacheLimit)
	}
	// The most recent pattern must still be cached.
	last := fmt.Sprintf("^node%04d$", reCacheLimit+99)
	if _, ok := reCache.get(last); !ok {
		t.Fatalf("most recently inserted pattern evicted")
	}
}
