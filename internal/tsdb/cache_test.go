package tsdb

import (
	"fmt"
	"math"
	"testing"
)

// cacheFixture builds a DB whose columns are mostly sealed: nodes
// series of perNode minutely points with an aggressive seal threshold,
// so scans must decode blocks through the decode cache. The readings
// are not float32-exact, so a cached point costs 8 B.
func cacheFixture(t *testing.T, budget int64, nodes, perNode int) *DB {
	t.Helper()
	db := Open(Options{BlockSize: 32, DecodeCacheBytes: budget})
	var pts []Point
	for n := 0; n < nodes; n++ {
		for i := 0; i < perNode; i++ {
			pts = append(pts, Point{
				Measurement: "Power",
				Tags:        Tags{{"NodeId", fmt.Sprintf("n%d", n)}},
				Fields:      map[string]Value{"Reading": Float(float64(100+i%50) + 0.1)},
				Time:        int64(i * 60),
			})
		}
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	if cs := db.Compression(); cs.BlocksSealed == 0 {
		t.Fatal("fixture sealed no blocks")
	}
	return db
}

// TestDecodeCacheCounters checks the basic contract: a cold scan is
// all misses, an immediately repeated scan is all hits, and resident
// bytes track the admitted payloads.
func TestDecodeCacheCounters(t *testing.T) {
	db := cacheFixture(t, 1<<30, 4, 256)
	scan := func() {
		t.Helper()
		if _, err := db.Query(`SELECT max("Reading") FROM "Power" GROUP BY time(5m), "NodeId"`); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	cold := db.CacheStats()
	if cold.Misses == 0 || cold.Hits != 0 {
		t.Fatalf("cold scan: %+v, want misses only", cold)
	}
	if cold.ResidentBytes == 0 || cold.Entries == 0 {
		t.Fatalf("cold scan admitted nothing: %+v", cold)
	}
	scan()
	warm := db.CacheStats()
	if warm.Misses != cold.Misses {
		t.Fatalf("warm scan re-decoded: %+v after %+v", warm, cold)
	}
	if warm.Hits == 0 {
		t.Fatalf("warm scan missed the cache: %+v", warm)
	}
	if warm.Evictions != 0 {
		t.Fatalf("evictions under a roomy budget: %+v", warm)
	}
}

// TestDecodeCacheBudgetEviction is the cold-scan stress: with a budget
// far smaller than the decoded working set, repeated full scans must
// keep resident bytes at or under budget by evicting, never crash, and
// still answer correctly.
func TestDecodeCacheBudgetEviction(t *testing.T) {
	const budget = 16 * 1024              // 2,048 decoded regular float points at 8 B
	db := cacheFixture(t, budget, 8, 512) // 4,096 points decoded cold
	for pass := 0; pass < 3; pass++ {
		res, err := db.Query(`SELECT count("Reading") FROM "Power"`)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Series[0].Rows()[0].Values[0].I; n != 8*512 {
			t.Fatalf("pass %d: count = %d, want %d", pass, n, 8*512)
		}
		cs := db.CacheStats()
		if cs.ResidentBytes > budget {
			t.Fatalf("pass %d: resident %d exceeds budget %d: %+v", pass, cs.ResidentBytes, budget, cs)
		}
	}
	cs := db.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("working set exceeds budget yet nothing evicted: %+v", cs)
	}
	if cs.BudgetBytes != budget {
		t.Fatalf("budget reported %d, want %d", cs.BudgetBytes, budget)
	}
}

// TestDecodeCachePurgeOnDelete pins the dead-block lifecycle: every
// mutation that drops sealed blocks must purge their decode-cache
// entries. Without the purge, dead blocks stay charged against the
// budget forever — a quiet database never reclaims them, and CLOCK
// pressure evicts live blocks while the corpses stay resident. An
// out-of-order write behind sealed data unseals (and re-seals) the
// whole column, so it drops that column's blocks as surely as a delete
// does, and only those.
func TestDecodeCachePurgeOnDelete(t *testing.T) {
	const nodes = 4
	for _, row := range []struct {
		name       string
		deletesAll bool // false: only n0's column is rebuilt
		mutate     func(db *DB) error
	}{
		{"DeleteBefore", true, func(db *DB) error {
			_, err := db.DeleteBefore(1 << 40) // everything
			return err
		}},
		{"DropMeasurement", true, func(db *DB) error {
			_, err := db.DropMeasurement("Power")
			return err
		}},
		{"DeleteMeasurementBefore", true, func(db *DB) error {
			_, err := db.DeleteMeasurementBefore("Power", 1<<40)
			return err
		}},
		{"out-of-order write", false, func(db *DB) error {
			return db.WritePoint(Point{
				Measurement: "Power",
				Tags:        Tags{{"NodeId", "n0"}},
				Fields:      map[string]Value{"Reading": Float(1)},
				Time:        30, // behind every cached block of n0
			})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			db := cacheFixture(t, 1<<30, nodes, 256)
			query := func() {
				t.Helper()
				if _, err := db.Query(`SELECT count("Reading") FROM "Power"`); err != nil {
					t.Fatal(err)
				}
			}
			query()
			before := db.CacheStats()
			if before.ResidentBytes == 0 || before.Entries == 0 {
				t.Fatalf("scan admitted nothing: %+v", before)
			}
			if err := row.mutate(db); err != nil {
				t.Fatal(err)
			}
			after := db.CacheStats()
			dead := before.Entries
			if !row.deletesAll {
				dead = before.Entries / nodes // n0's blocks; the other nodes' stay resident
			}
			if after.Purges != int64(dead) || after.Entries != before.Entries-dead {
				t.Fatalf("purged %d entries leaving %d, want %d leaving %d: %+v",
					after.Purges, after.Entries, dead, before.Entries-dead, after)
			}
			if !row.deletesAll {
				return
			}
			if after.ResidentBytes != 0 {
				t.Fatalf("dead blocks still charged: %+v", after)
			}
			// The database is empty now: querying it must decode nothing.
			query()
			if final := db.CacheStats(); final.Misses != after.Misses {
				t.Fatalf("query after delete decoded blocks: %+v after %+v", final, after)
			}
		})
	}
}

// TestDecodeCacheAdmitDedup pins the racing-decoder loser path in
// admit: when a block is already admitted, a second admit must count
// no miss, converge the block's memo back onto the winner's accounted
// payload, and leave resident bytes charged exactly once. The old path
// double-counted the miss and left the loser's duplicate payload as
// the block memo, splitting accounting from reality.
func TestDecodeCacheAdmitDedup(t *testing.T) {
	c := newDecodeCache(1 << 20)
	blk := &block{count: 10}
	p1 := floatPayload(10)
	blk.cache.Store(p1)
	c.admit(blk, p1)
	want := int64(10) * 16
	if m := c.misses.Load(); m != 1 {
		t.Fatalf("first admit: misses = %d, want 1", m)
	}
	if r := c.resident.Load(); r != want {
		t.Fatalf("first admit: resident = %d, want %d", r, want)
	}

	// A racing decoder lost: it stored its own payload into the memo
	// and now admits it.
	p2 := floatPayload(10)
	blk.cache.Store(p2)
	c.admit(blk, p2)
	if m := c.misses.Load(); m != 1 {
		t.Fatalf("dedup admit counted a miss: misses = %d, want 1", m)
	}
	if r := c.resident.Load(); r != want {
		t.Fatalf("dedup admit double-charged: resident = %d, want %d", r, want)
	}
	if got := blk.cache.Load(); got != p1 {
		t.Fatalf("memo not converged onto winner payload: got %p, want %p", got, p1)
	}
	if !p1.ref.Load() {
		t.Fatal("winner payload not marked recently used")
	}
}

// TestDecodeCacheAdmitRace hammers admit with racing decoders of the
// same blocks under -race: accounting must stay consistent — one miss
// and one charge per distinct block, no duplicate ring entries.
func TestDecodeCacheAdmitRace(t *testing.T) {
	c := newDecodeCache(math.MaxInt64)
	blocks := make([]*block, 16)
	for i := range blocks {
		blocks[i] = &block{count: 8}
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, blk := range blocks {
				p := floatPayload(8)
				blk.cache.Store(p)
				c.admit(blk, p)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if m := c.misses.Load(); m != int64(len(blocks)) {
		t.Fatalf("misses = %d, want %d (one per distinct block)", m, len(blocks))
	}
	want := int64(len(blocks)) * 8 * 16
	if r := c.resident.Load(); r != want {
		t.Fatalf("resident = %d, want %d", r, want)
	}
	c.mu.Lock()
	entries, ring := len(c.entries), len(c.ring)
	c.mu.Unlock()
	if entries != len(blocks) || ring != len(blocks) {
		t.Fatalf("entries = %d, ring = %d, want %d each", entries, ring, len(blocks))
	}
}

// TestDecodeCacheUnbounded checks the keep-everything end of the
// budget range: a budget no working set reaches never evicts.
func TestDecodeCacheUnbounded(t *testing.T) {
	db := cacheFixture(t, math.MaxInt64, 8, 512)
	for pass := 0; pass < 2; pass++ {
		if _, err := db.Query(`SELECT count("Reading") FROM "Power"`); err != nil {
			t.Fatal(err)
		}
	}
	cs := db.CacheStats()
	if cs.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", cs)
	}
	if cs.BudgetBytes != math.MaxInt64 {
		t.Fatalf("budget reported %d, want the configured bound", cs.BudgetBytes)
	}
	if cs.ResidentBytes == 0 || cs.Hits == 0 {
		t.Fatalf("unbounded cache not caching: %+v", cs)
	}
}
