package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// ContentionResult is one mode's half of the mixed read/write
// experiment: query latency while a collector-style writer continuously
// flushes batches into the same store.
type ContentionResult struct {
	Mode         string
	Queries      int
	MeanLatency  time.Duration
	P99Latency   time.Duration
	WriteBatches int64
	MeanLockWait time.Duration // mean per-query wait for the baseline's read lock
}

// contentionNodes/contentionSamples size the fixed query dataset; the
// queried measurement lives in a far-future shard the background
// writer's retention churn never touches, so the per-query work is
// identical in both modes and only the concurrency model differs.
const (
	contentionNodes     = 64
	contentionSamples   = 60
	contentionQueryBase = int64(1_000_000_000)
)

func contentionSeed(db *tsdb.DB) error {
	var pts []tsdb.Point
	for n := 0; n < contentionNodes; n++ {
		for i := 0; i < contentionSamples; i++ {
			pts = append(pts, tsdb.Point{
				Measurement: "Power",
				Tags: tsdb.Tags{
					{Key: "NodeId", Value: fmt.Sprintf("node%03d", n)},
					{Key: "Label", Value: "System Power Control"},
				},
				Fields: map[string]tsdb.Value{"Reading": tsdb.Float(float64(100 + n + i%7))},
				Time:   contentionQueryBase + int64(i*60),
			})
		}
	}
	return db.WritePoints(pts)
}

// MeasureContention runs the mixed read/write workload in one
// concurrency model: a background writer streams collector-sized
// batches (with periodic retention sweeps bounding memory) while
// `readers` goroutines each execute `queries` fan-out aggregation
// queries against a fixed dataset. It reports the observed query
// latency distribution.
//
// The engine has one model, snapshot-isolated reads. The global-lock
// baseline it replaced is reproduced here, around the engine: one
// RWMutex that a query holds shared for its full duration and that
// every write batch and retention sweep takes exclusively, so a
// collector flush stalls every concurrent query.
func MeasureContention(globalLock bool, readers, queries, batchSize int) (*ContentionResult, error) {
	var mu sync.RWMutex
	lock, unlock, rlock, runlock := func() {}, func() {}, func() {}, func() {}
	if globalLock {
		lock, unlock, rlock, runlock = mu.Lock, mu.Unlock, mu.RLock, mu.RUnlock
	}
	db := tsdb.Open(tsdb.Options{ShardDuration: 3600})
	if err := contentionSeed(db); err != nil {
		return nil, err
	}
	q, err := tsdb.Parse(`SELECT max("Reading") FROM "Power" GROUP BY time(5m), "NodeId", "Label"`)
	if err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	// Readers start once the writer's first batch is in: on two busy
	// cores the scheduler may otherwise leave the writer idle for the
	// whole quick run, and no query would run beside a write.
	wrote := make(chan struct{})
	var wroteOnce sync.Once
	go func() {
		defer close(writerErr)
		defer wroteOnce.Do(func() { close(wrote) })
		// Tags and field maps are built once so the writer loop spends
		// its time inside WritePoints (the collector-flush shape), not
		// formatting strings.
		nodeTags := make([]tsdb.Tags, contentionNodes)
		for n := range nodeTags {
			nodeTags[n] = tsdb.Tags{{Key: "NodeId", Value: fmt.Sprintf("node%03d", n)}}
		}
		fields := make([]map[string]tsdb.Value, batchSize)
		for j := range fields {
			fields[j] = map[string]tsdb.Value{"Reading": tsdb.Float(float64(100 + j%50))}
		}
		ts := int64(0)
		batch := make([]tsdb.Point, batchSize)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range batch {
				batch[j] = tsdb.Point{
					Measurement: "Ingest",
					Tags:        nodeTags[j%contentionNodes],
					Fields:      fields[j],
					Time:        ts,
				}
				ts++
			}
			lock()
			err := db.WritePoints(batch)
			if err == nil && i%16 == 15 {
				_, err = db.DeleteBefore(ts - 2*3600) // retention: keep memory bounded
			}
			unlock()
			if err != nil {
				writerErr <- err
				return
			}
			wroteOnce.Do(func() { close(wrote) })
		}
	}()
	<-wrote

	clk := clock.NewReal() // real query latency is this experiment's output
	latencies := make([][]time.Duration, readers)
	lockWaits := make([]int64, readers)
	var wg sync.WaitGroup
	var execErr error
	var errOnce sync.Once
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, queries)
			for i := 0; i < queries; i++ {
				t0 := clk.Now()
				rlock()
				locked := clk.Now()
				_, err := db.Exec(q)
				runlock()
				if err != nil {
					errOnce.Do(func() { execErr = err })
					return
				}
				lat = append(lat, clk.Now().Sub(t0))
				lockWaits[r] += locked.Sub(t0).Nanoseconds()
			}
			latencies[r] = lat
		}(r)
	}
	wg.Wait()
	close(stop)
	if err := <-writerErr; err != nil {
		return nil, err
	}
	if execErr != nil {
		return nil, execErr
	}

	var all []time.Duration
	var totalWait int64
	for r := range latencies {
		all = append(all, latencies[r]...)
		totalWait += lockWaits[r]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	mode := "snapshot"
	if globalLock {
		mode = "global-lock"
	}
	return &ContentionResult{
		Mode:         mode,
		Queries:      len(all),
		MeanLatency:  sum / time.Duration(len(all)),
		P99Latency:   all[len(all)*99/100],
		WriteBatches: db.Stats().BatchesWritten,
		MeanLockWait: time.Duration(totalWait / int64(len(all))),
	}, nil
}

// runExtContention reproduces the defining production-monitoring load —
// continuous collector ingest concurrent with Metrics Builder fan-out —
// under the old global-lock serialization and the snapshot-isolated
// read path, reporting the query-latency improvement.
func runExtContention(quick bool) (*Table, error) {
	readers, queries, batch := 4, 200, 10000
	if quick {
		readers, queries, batch = 2, 40, 5000
	}
	global, err := MeasureContention(true, readers, queries, batch)
	if err != nil {
		return nil, err
	}
	snap, err := MeasureContention(false, readers, queries, batch)
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
	t := &Table{
		ID:      "ext-contention",
		Title:   "Extension: query latency under concurrent collector ingest, global-lock vs snapshot reads",
		Columns: []string{"mode", "queries", "mean (ms)", "p99 (ms)", "write batches", "mean lock wait (ms)"},
		Rows: [][]string{
			{global.Mode, fmt.Sprintf("%d", global.Queries), ms(global.MeanLatency), ms(global.P99Latency), fmt.Sprintf("%d", global.WriteBatches), ms(global.MeanLockWait)},
			{snap.Mode, fmt.Sprintf("%d", snap.Queries), ms(snap.MeanLatency), ms(snap.P99Latency), fmt.Sprintf("%d", snap.WriteBatches), ms(snap.MeanLockWait)},
		},
		Notes: []string{
			fmt.Sprintf("snapshot reads are %.2fx faster on mean latency (%.2fx on p99): queries never stall behind a write batch",
				float64(global.MeanLatency)/float64(snap.MeanLatency),
				float64(global.P99Latency)/float64(snap.P99Latency)),
			fmt.Sprintf("%d readers x %d queries against %d series, writer flushing %d-point batches with retention churn", readers, queries, contentionNodes, batch),
		},
	}
	return t, nil
}
