package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// coldPoint builds one Power sample for the cold-tier tests.
func coldPoint(node string, ts int64, v float64) Point {
	return Point{
		Measurement: "Power",
		Tags:        Tags{{Key: "NodeId", Value: node}},
		Fields:      map[string]Value{"Reading": Float(v)},
		Time:        ts,
	}
}

// coldFixture builds a cold-enabled DB with an aggressive seal
// threshold plus an identical all-resident twin for bit-identical
// comparisons. Both hold nodes x perNode minutely points.
func coldFixture(t *testing.T, nodes, perNode int) (cold, resident *DB) {
	t.Helper()
	cold = Open(Options{BlockSize: 32, ColdDir: t.TempDir()})
	resident = Open(Options{BlockSize: 32})
	var pts []Point
	for n := 0; n < nodes; n++ {
		for i := 0; i < perNode; i++ {
			pts = append(pts, coldPoint(fmt.Sprintf("n%d", n), int64(i*60), float64(100+(n*perNode+i)%97)))
		}
	}
	for _, db := range []*DB{cold, resident} {
		if err := db.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
		if cs := db.Compression(); cs.BlocksSealed == 0 {
			t.Fatal("fixture sealed no blocks")
		}
	}
	return cold, resident
}

// queriesEqual runs stmt against both databases and requires
// bit-identical result series.
func queriesEqual(t *testing.T, got, want *DB, stmt string) {
	t.Helper()
	rg, err := got.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	rw, err := want.Query(stmt)
	if err != nil {
		t.Fatalf("%s (baseline): %v", stmt, err)
	}
	if !reflect.DeepEqual(rg.Series, rw.Series) {
		t.Fatalf("%s: cold-tier result diverges from all-resident baseline\ngot:  %+v\nwant: %+v",
			stmt, rg.Series, rw.Series)
	}
}

// TestColdSpillReadThrough is the basic contract: spilling sealed
// blocks drops their in-memory payloads, queries read them back from
// disk bit-identically, and the decode cache makes the second scan
// serve from memory again.
func TestColdSpillReadThrough(t *testing.T) {
	cold, resident := coldFixture(t, 4, 256)
	before := cold.ColdStats()
	if !before.Enabled || before.BlocksCold != 0 || before.ResidentBlocks == 0 {
		t.Fatalf("pre-spill stats: %+v", before)
	}

	n, err := cold.SpillCold(math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != before.ResidentBlocks {
		t.Fatalf("spilled %d blocks, want %d", n, before.ResidentBlocks)
	}
	after := cold.ColdStats()
	if after.ResidentBlocks != 0 || after.BlocksCold != before.ResidentBlocks {
		t.Fatalf("post-spill stats: %+v", after)
	}
	if after.ColdBytes != before.ResidentBytes {
		t.Fatalf("cold bytes %d, want the former resident bytes %d", after.ColdBytes, before.ResidentBytes)
	}
	if after.Files == 0 || after.FileBytes == 0 || after.Spills != int64(n) {
		t.Fatalf("segment accounting: %+v", after)
	}
	// Compression accounting still sees every sealed block.
	if cs := cold.Compression(); cs.BlocksCold != int64(n) || cs.BytesCompressed == 0 {
		t.Fatalf("compression stats lost cold blocks: %+v", cs)
	}

	res, err := cold.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksFromDisk == 0 || res.Stats.BlocksFromDisk > res.Stats.BlocksDecoded {
		t.Fatalf("BlocksFromDisk = %d of %d decoded, want 0 < from-disk <= decoded",
			res.Stats.BlocksFromDisk, res.Stats.BlocksDecoded)
	}
	for _, stmt := range []string{
		`SELECT count("Reading") FROM "Power"`,
		`SELECT max("Reading") FROM "Power" GROUP BY time(5m), "NodeId"`,
		`SELECT "Reading" FROM "Power" GROUP BY "NodeId"`,
	} {
		queriesEqual(t, cold, resident, stmt)
	}

	// The decode cache now holds the hot set: a warm scan serves every
	// block from the memo (no cache misses) and touches no file.
	missesBefore := cold.CacheStats().Misses
	warm, err := cold.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.BlocksFromDisk != 0 {
		t.Fatalf("warm scan went back to disk: %+v", warm.Stats)
	}
	if misses := cold.CacheStats().Misses; misses != missesBefore {
		t.Fatalf("warm scan re-decoded: %d misses, was %d", misses, missesBefore)
	}
}

// TestColdSpillBudget drives spilling purely by the resident budget:
// with olderThan below every block, only ColdMaxResidentBytes forces
// blocks out, oldest first, until the residue fits.
func TestColdSpillBudget(t *testing.T) {
	const budget = 2 * 1024
	db := Open(Options{BlockSize: 32, ColdDir: t.TempDir(), ColdMaxResidentBytes: budget})
	resident := Open(Options{BlockSize: 32})
	var pts []Point
	for n := 0; n < 8; n++ {
		for i := 0; i < 512; i++ {
			// Every value differs deep in the mantissa so the XOR stream
			// stays incompressible and each block carries real weight.
			pts = append(pts, coldPoint(fmt.Sprintf("n%d", n), int64(i*60), float64(i)*1.000001+float64(n)*0.37))
		}
	}
	for _, d := range []*DB{db, resident} {
		if err := d.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
	}
	pre := db.ColdStats()
	if pre.ResidentBytes <= budget {
		t.Fatalf("fixture too small to exercise the budget: %+v", pre)
	}

	if _, err := db.SpillCold(math.MinInt64); err != nil {
		t.Fatal(err)
	}
	cs := db.ColdStats()
	if cs.ResidentBytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d: %+v", cs.ResidentBytes, budget, cs)
	}
	if cs.BlocksCold == 0 {
		t.Fatalf("budget pass spilled nothing: %+v", cs)
	}
	// Oldest-first: every remaining resident block must end no earlier
	// than every spilled block ends.
	v := db.view.Load()
	minResident, maxCold := int64(math.MaxInt64), int64(math.MinInt64)
	for _, sh := range v.shards {
		for _, sr := range sh.series {
			for _, f := range sr.fields {
				for _, blk := range f.col.blocks {
					if blk.cold != nil && blk.maxT > maxCold {
						maxCold = blk.maxT
					}
					if blk.data != nil && blk.maxT < minResident {
						minResident = blk.maxT
					}
				}
			}
		}
	}
	if minResident < maxCold {
		t.Fatalf("spill order not oldest-first: resident block ends %d before cold block end %d", minResident, maxCold)
	}
	queriesEqual(t, db, resident, `SELECT mean("Reading") FROM "Power" GROUP BY time(10m), "NodeId"`)

	// A second pass with nothing over budget is a no-op.
	if n, err := db.SpillCold(math.MinInt64); n != 0 || err != nil {
		t.Fatalf("idempotent spill: n=%d err=%v", n, err)
	}
}

// TestColdPropertyAggregates is the randomized property test: across
// random interleavings of writes and spills at random cutoffs, all
// five aggregates stay bit-identical to an all-resident twin fed the
// exact same points.
func TestColdPropertyAggregates(t *testing.T) {
	aggs := []string{"max", "min", "mean", "sum", "count"}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		cold := Open(Options{BlockSize: 16, ColdDir: t.TempDir(), ShardDuration: 3600})
		resident := Open(Options{BlockSize: 16, ShardDuration: 3600})
		maxTs := int64(0)
		for round := 0; round < 6; round++ {
			var pts []Point
			for i := 0; i < 50+rng.Intn(100); i++ {
				node := fmt.Sprintf("n%d", rng.Intn(3))
				maxTs += int64(rng.Intn(90))
				pts = append(pts, coldPoint(node, maxTs, math.Round(rng.Float64()*1000)/4))
			}
			for _, d := range []*DB{cold, resident} {
				if err := d.WritePoints(pts); err != nil {
					t.Fatal(err)
				}
			}
			// Spill at a random cutoff inside the written range (and
			// sometimes past it, spilling everything sealed).
			cutoff := int64(rng.Intn(int(maxTs) + 2))
			if rng.Intn(3) == 0 {
				cutoff = math.MaxInt64
			}
			if _, err := cold.SpillCold(cutoff); err != nil {
				t.Fatal(err)
			}
			for _, agg := range aggs {
				stmt := fmt.Sprintf(`SELECT %s("Reading") FROM "Power" GROUP BY time(7m), "NodeId"`, agg)
				queriesEqual(t, cold, resident, stmt)
			}
		}
		if cs := cold.ColdStats(); cs.BlocksCold == 0 {
			t.Fatalf("trial %d never spilled: %+v", trial, cs)
		}
	}
}

// TestColdSaveFileInlines checks the portable export path: SaveFile of
// a database with spilled blocks inlines their payloads, so the file
// restores with no cold directory at all.
func TestColdSaveFileInlines(t *testing.T) {
	cold, resident := coldFixture(t, 2, 128)
	if _, err := cold.SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "export.mtsd")
	if err := cold.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cs := restored.ColdStats(); cs.Enabled || cs.BlocksCold != 0 {
		t.Fatalf("restored export references the cold tier: %+v", cs)
	}
	queriesEqual(t, restored, resident, `SELECT max("Reading") FROM "Power" GROUP BY time(5m), "NodeId"`)
}

// coldSegments lists the cold segment files under dir.
func coldSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, _, ok := parseColdName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestColdCheckpointReopen covers the durable path: a checkpoint
// snapshot stores cold blocks by file reference, and recovery
// restores them still cold — the payloads are never re-read into
// memory — while queries stay bit-identical.
func TestColdCheckpointReopen(t *testing.T) {
	root := t.TempDir()
	walDir := filepath.Join(root, "wal")
	coldDir := filepath.Join(root, "cold")
	opts := Options{ShardDuration: 3600, BlockSize: 4, ColdDir: coldDir}
	db, _, err := OpenDurable(opts, WALOptions{Dir: walDir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := db.WritePoint(coldPoint("n1", int64(i*60), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	wantCold := db.ColdStats().BlocksCold
	if wantCold == 0 {
		t.Fatal("nothing spilled")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	baseline, err := db.Query(`SELECT "Reading" FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}

	// Crash (abandon the handle) and recover next to the cold dir.
	db2, info, err := OpenDurable(opts, WALOptions{Dir: walDir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded {
		t.Fatalf("checkpoint snapshot not loaded: %+v", info)
	}
	cs := db2.ColdStats()
	if cs.BlocksCold != wantCold || cs.ResidentBlocks != 0 {
		t.Fatalf("recovery rehydrated cold blocks: %+v, want %d cold", cs, wantCold)
	}
	res, err := db2.Query(`SELECT "Reading" FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Series, baseline.Series) {
		t.Fatalf("recovered query diverges:\ngot:  %+v\nwant: %+v", res.Series, baseline.Series)
	}
	if res.Stats.BlocksFromDisk == 0 {
		t.Fatalf("recovered cold blocks never touched disk: %+v", res.Stats)
	}

	// Without the cold directory configured, the reference-bearing
	// snapshot must refuse to restore rather than silently drop data.
	if _, _, err := OpenDurable(Options{ShardDuration: 3600, BlockSize: 4},
		WALOptions{Dir: walDir, Policy: FsyncNever}); err == nil {
		t.Fatal("restore without ColdDir accepted a snapshot with cold references")
	}
}

// TestColdRefBoundedBySegment: a checkpoint whose cold reference claims
// 128 MiB — under maxFrame, behind a valid frame checksum, in a segment
// of a few dozen bytes — is refused as corrupt before the pread buffer
// is allocated.
func TestColdRefBoundedBySegment(t *testing.T) {
	root := t.TempDir()
	opts := Options{ShardDuration: 3600, BlockSize: 4, ColdDir: filepath.Join(root, "cold")}
	wopts := WALOptions{Dir: filepath.Join(root, "wal"), Policy: FsyncNever}
	db, _, err := OpenDurable(opts, wopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.WritePoint(coldPoint("n1", int64(i*60), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.SpillCold(math.MaxInt64); n != 1 || err != nil {
		t.Fatalf("spilled %d blocks, err %v; want one", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listDir(wopts.Dir, snapshotBoundary)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, err %v", snaps, err)
	}
	snap, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0].path, inflateColdRef(t, snap, 128<<20), 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = OpenDurable(opts, wopts)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errColdCorrupt) {
		t.Fatalf("open over a 128 MiB cold reference: err %v, want errColdCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("refusing the reference allocated %d bytes", grew)
	}
}

// copyDir clones every regular file in src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColdKillPointMatrix proves spill/checkpoint crash safety by
// truncating the cold segment file at every offset. Workload: batch A
// is spilled and checkpointed (the snapshot references A's frames);
// batch B is spilled afterwards (references memory-only, frames appended
// past A's). Any truncation at or past A's high-water mark must recover
// every point — B replays from the WAL, its orphaned frames are
// garbage. Any truncation below it must fail loudly at restore, never
// panic or return wrong data.
func TestColdKillPointMatrix(t *testing.T) {
	root := t.TempDir()
	walDir := filepath.Join(root, "wal")
	coldDir := filepath.Join(root, "cold")
	opts := Options{ShardDuration: 3600, BlockSize: 4, ColdDir: coldDir}
	db, _, err := OpenDurable(opts, WALOptions{Dir: walDir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const perBatch = 8
	for i := 0; i < perBatch; i++ {
		if err := db.WritePoint(coldPoint("n1", int64(i*60), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	segs := coldSegments(t, coldDir)
	if len(segs) != 1 {
		t.Fatalf("want one segment file, have %v", segs)
	}
	segName := segs[0]
	st, err := os.Stat(filepath.Join(coldDir, segName))
	if err != nil {
		t.Fatal(err)
	}
	durableSize := st.Size() // frames the checkpoint below will reference
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := perBatch; i < 2*perBatch; i++ {
		if err := db.WritePoint(coldPoint("n1", int64(i*60), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(coldDir, segName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= durableSize {
		t.Fatalf("batch B appended nothing: %d <= %d", len(data), durableSize)
	}

	stride := int64(1)
	if testing.Short() {
		stride = int64(len(data)) / 64
		if stride < 1 {
			stride = 1
		}
	}
	for off := int64(0); off <= int64(len(data)); off += stride {
		trial := filepath.Join(t.TempDir(), fmt.Sprintf("kill-%d", off))
		trialWAL := filepath.Join(trial, "wal")
		trialCold := filepath.Join(trial, "cold")
		copyDir(t, walDir, trialWAL)
		if err := os.MkdirAll(trialCold, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(trialCold, segName), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		trialOpts := opts
		trialOpts.ColdDir = trialCold
		rec, _, err := OpenDurable(trialOpts, WALOptions{Dir: trialWAL, Policy: FsyncNever})
		if off < durableSize {
			// A referenced frame is gone: recovery must say so.
			if err == nil {
				t.Fatalf("offset %d (< durable %d): recovery accepted a truncated segment", off, durableSize)
			}
			continue
		}
		if err != nil {
			t.Fatalf("offset %d (>= durable %d): recovery failed: %v", off, durableSize, err)
		}
		res, err := rec.Query(`SELECT count("Reading") FROM "Power"`)
		if err != nil {
			t.Fatalf("offset %d: query: %v", off, err)
		}
		if n := res.Series[0].Rows()[0].Values[0].I; n != 2*perBatch {
			t.Fatalf("offset %d: count = %d, want %d", off, n, 2*perBatch)
		}
		// Recovery after recovery is stable: the first pass's orphan
		// sweep must keep every snapshot-referenced frame.
		rec2, _, err := OpenDurable(trialOpts, WALOptions{Dir: trialWAL, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("offset %d: second recovery: %v", off, err)
		}
		if got := rec2.Disk().Points; got != rec.Disk().Points {
			t.Fatalf("offset %d: second recovery diverged: %d vs %d points", off, got, rec.Disk().Points)
		}
	}
}

// TestColdCompaction checks the garbage lifecycle: dropping most cold
// data makes its file mostly dead, compaction rewrites the survivors
// into a fresh generation, and the orphan sweep deletes the old file —
// with queries bit-identical throughout.
func TestColdCompaction(t *testing.T) {
	coldDir := t.TempDir()
	db := Open(Options{BlockSize: 8, ColdDir: coldDir, ShardDuration: 86400})
	resident := Open(Options{BlockSize: 8, ShardDuration: 86400})
	var pts []Point
	for i := 0; i < 64; i++ {
		pts = append(pts, coldPoint("n1", int64(i*60), float64(i)))
		// scratch carries two fields, so dropping it leaves clearly more
		// dead than live bytes in the segment file.
		pts = append(pts, Point{
			Measurement: "scratch",
			Tags:        Tags{{Key: "NodeId", Value: "n1"}},
			Fields: map[string]Value{
				"v": Float(float64(i) * 1.000001),
				"w": Float(float64(i) * 1.000003),
			},
			Time: int64(i * 60),
		})
	}
	for _, d := range []*DB{db, resident} {
		if err := d.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SpillCold(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.DropMeasurement("scratch"); !ok || err != nil {
		t.Fatalf("drop: ok=%t err=%v", ok, err)
	}
	if ok, err := resident.DropMeasurement("scratch"); !ok || err != nil {
		t.Fatalf("drop baseline: ok=%t err=%v", ok, err)
	}
	before := db.ColdStats()
	if before.BlocksCold == 0 {
		t.Fatalf("fixture has no cold blocks: %+v", before)
	}

	if err := db.compactCold(); err != nil {
		t.Fatal(err)
	}
	if cs := db.ColdStats(); cs.Compactions == 0 {
		t.Fatalf("mostly-dead file not compacted: %+v", cs)
	}
	// The live view now references only the fresh generation; the old
	// file is unreferenced garbage for the sweep.
	if err := db.cold.sweepOrphans(db.view.Load()); err != nil {
		t.Fatal(err)
	}
	after := db.ColdStats()
	if after.ReclaimedBytes == 0 || after.FileBytes >= before.FileBytes {
		t.Fatalf("sweep reclaimed nothing: before %+v after %+v", before, after)
	}
	if after.BlocksCold != before.BlocksCold {
		t.Fatalf("compaction lost blocks: %d -> %d", before.BlocksCold, after.BlocksCold)
	}
	queriesEqual(t, db, resident, `SELECT "Reading" FROM "Power"`)
	queriesEqual(t, db, resident, `SELECT sum("Reading") FROM "Power" GROUP BY time(7m)`)
}

// TestColdCorruptSegment flips and truncates segment bytes under live
// references: queries must fail with an explicit corruption error —
// never panic, never return data that passed no checksum.
func TestColdCorruptSegment(t *testing.T) {
	corrupt := func(t *testing.T, mutate func(db *DB, path string, data []byte)) error {
		t.Helper()
		coldDir := t.TempDir()
		db := Open(Options{BlockSize: 32, ColdDir: coldDir})
		var pts []Point
		for i := 0; i < 256; i++ {
			pts = append(pts, coldPoint("n1", int64(i*60), float64(i)))
		}
		if err := db.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
		if _, err := db.SpillCold(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		segs := coldSegments(t, coldDir)
		if len(segs) != 1 {
			t.Fatalf("segments: %v", segs)
		}
		path := filepath.Join(coldDir, segs[0])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutate(db, path, data)
		_, err = db.Query(`SELECT count("Reading") FROM "Power"`)
		return err
	}
	// dropHandles closes the tier's cached file handles — what a process
	// restart does implicitly, forcing the next read to reopen the file.
	dropHandles := func(t *testing.T, db *DB) {
		t.Helper()
		db.cold.mu.Lock()
		defer db.cold.mu.Unlock()
		for name, cf := range db.cold.files {
			if err := cf.f.Close(); err != nil {
				t.Fatal(err)
			}
			delete(db.cold.files, name)
		}
		db.cold.appenders = make(map[int64]*segment)
	}

	t.Run("bitflip", func(t *testing.T) {
		err := corrupt(t, func(db *DB, path string, data []byte) {
			data[coldHeaderSize+frameHeader+3] ^= 0x40 // inside the first payload
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("bit-flipped payload: err = %v, want corruption error", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		err := corrupt(t, func(db *DB, path string, data []byte) {
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if err == nil {
			t.Fatal("truncated segment: query succeeded")
		}
	})
	t.Run("missing", func(t *testing.T) {
		err := corrupt(t, func(db *DB, path string, data []byte) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			dropHandles(t, db)
		})
		if err == nil {
			t.Fatal("deleted segment: query succeeded")
		}
	})
}

// TestColdConcurrentScanSpillExpire races scans against spills and
// retention sweeps under a tiny decode-cache budget — the
// eviction/purge/read-through interleaving the race detector must
// bless. Scans tolerate shard drops mid-flight; what they must never
// do is crash, race, or return corrupt data.
func TestColdConcurrentScanSpillExpire(t *testing.T) {
	db := Open(Options{
		BlockSize:            16,
		ColdDir:              t.TempDir(),
		ShardDuration:        3600,
		DecodeCacheBytes:     8 * 1024,
		ColdMaxResidentBytes: 4 * 1024,
	})
	var pts []Point
	for n := 0; n < 4; n++ {
		for i := 0; i < 600; i++ {
			pts = append(pts, coldPoint(fmt.Sprintf("n%d", n), int64(i*60), float64(i)))
		}
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(`SELECT mean("Reading") FROM "Power" GROUP BY time(5m), "NodeId"`); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		if _, err := db.SpillCold(int64(round * 120)); err != nil {
			t.Fatal(err)
		}
		if round == 10 {
			if _, err := db.DeleteBefore(3600); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if cs := db.CacheStats(); cs.ResidentBytes > 8*1024 {
		t.Fatalf("decode cache over budget after the storm: %+v", cs)
	}
}

// FuzzColdBlockRead feeds arbitrary bytes in as a segment file and
// reads a frame back through a coldRef: every outcome must be a clean
// payload or an error — never a panic, and never a payload that fails
// its own checksum.
func FuzzColdBlockRead(f *testing.F) {
	// Seed with a well-formed single-frame segment.
	ct := newColdTier(f.TempDir(), 0)
	payload := []byte("gorilla-compressed-bytes-stand-in")
	ref, err := ct.appendPayload(0, payload, false)
	if err != nil {
		f.Fatal(err)
	}
	if err := ct.syncAppenders(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(ct.dir, ref.file))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, ref.off, ref.length, ref.crc)
	f.Add(seed[:len(seed)-3], ref.off, ref.length, ref.crc) // torn tail
	f.Add([]byte{}, int64(coldHeaderSize+frameHeader), uint32(1), uint32(0))

	f.Fuzz(func(t *testing.T, file []byte, off int64, length, crc uint32) {
		dir := t.TempDir()
		name := coldFileName(0, 0)
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
			t.Skip()
		}
		// Bound the claimed length so a hostile value cannot force a
		// giant allocation; anything past EOF errors inside read.
		if int64(length) > int64(len(file))+frameHeader {
			length = uint32(len(file)) + frameHeader
		}
		tier := newColdTier(dir, 0)
		r := &coldRef{ct: tier, file: name, off: off, length: length, crc: crc}
		got, err := r.read()
		if err != nil {
			return
		}
		if uint32(len(got)) != length {
			t.Fatalf("read returned %d bytes, claimed %d", len(got), length)
		}
		// A successful read implies the checksum held; decoding must
		// then be panic-free (it may still reject the bytes).
		blk := &block{count: 1, data: got}
		_, _, _ = blk.decode(nil)
	})
}
