package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// TestExecCancelStopsScan: Exec under a done context returns the
// context's error and no result, and reads nothing. On a store whose
// sealed blocks are all spilled cold, no segment is read and the decode
// cache sees no lookup; on a tail-only store, which decodes no block,
// the check between groups stops the scan. Both hold with the groups on
// one worker (the calling goroutine) and on a pool, and no goroutine
// outlives the call. The same query under a live context then reads the
// store, on the worker count the case names.
func TestExecCancelStopsScan(t *testing.T) {
	q, err := Parse(`SELECT max("Reading") FROM "Power" GROUP BY time(1h), "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		nodes, workers int
		cold           bool
	}{
		{"cold/one-worker", 4, 1, true},
		{"cold/pool", 12, 4, true},
		{"tail/one-worker", 4, 1, false},
		{"tail/pool", 12, 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{DecodeCacheBytes: 1 << 20}
			if tc.cold {
				opts.BlockSize, opts.ColdDir = 32, t.TempDir()
			}
			db := Open(opts)
			if tc.workers > 1 {
				db.execWorkers = tc.workers
			}
			var pts []Point
			for n := 0; n < tc.nodes; n++ {
				for i := 0; i < 256; i++ {
					pts = append(pts, coldPoint(fmt.Sprintf("n%d", n), int64(i*60), float64(i%97)))
				}
			}
			if err := db.WritePoints(pts); err != nil {
				t.Fatal(err)
			}
			if tc.cold {
				if n, err := db.SpillCold(math.MaxInt64); err != nil || n == 0 {
					t.Fatalf("spilled %d blocks: %v", n, err)
				}
			} else if cs := db.Compression(); cs.BlocksSealed != 0 {
				t.Fatalf("tail-only store sealed %d blocks", cs.BlocksSealed)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cold, cache := db.ColdStats(), db.CacheStats()
			goroutines := runtime.NumGoroutine()
			res, err := db.Exec(ctx, q)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("cancelled Exec = %v, %v; want no result and context.Canceled", res, err)
			}
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive the call, %d before it", runtime.NumGoroutine(), goroutines)
				}
			}
			if got := db.ColdStats().Reads; got != cold.Reads {
				t.Fatalf("cancelled scan read %d cold blocks", got-cold.Reads)
			}
			if got := db.CacheStats(); got != cache {
				t.Fatalf("cancelled scan touched the decode cache: %+v, was %+v", got, cache)
			}

			res, err = db.Exec(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series) != tc.nodes || res.Stats.ParallelWorkers != tc.workers {
				t.Fatalf("live scan: %d series on %d workers, want %d on %d",
					len(res.Series), res.Stats.ParallelWorkers, tc.nodes, tc.workers)
			}
			if tc.cold && db.ColdStats().Reads == cold.Reads {
				t.Fatal("live scan read no cold block: the store is not spilled")
			}
		})
	}
}

// TestColumnIteratorCancelStopsBeforeDecode: inside one group, a done
// context stops the column walk before its next block decode, and the
// stop error is the context's.
func TestColumnIteratorCancelStopsBeforeDecode(t *testing.T) {
	col := &column{}
	for b := 0; b < 3; b++ {
		col.blocks = append(col.blocks, sealBlock(timeVec{t: []int64{int64(b * 10), int64(b*10 + 5)}}, vecOf([]Value{Float(1), Float(2)})))
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := execState{ctx: ctx, done: ctx.Done()}
	it := newColumnIterator(col, 0, 100)
	if _, ok := it.next(&st); !ok || st.stats.BlocksDecoded != 1 {
		t.Fatalf("live walk: ok=%t, %d blocks decoded", ok, st.stats.BlocksDecoded)
	}
	cancel()
	if _, ok := it.next(&st); ok || st.stats.BlocksDecoded != 1 || !errors.Is(st.err, context.Canceled) {
		t.Fatalf("after cancel: ok=%t, %d blocks decoded, err %v", ok, st.stats.BlocksDecoded, st.err)
	}
}
