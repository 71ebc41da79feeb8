package tsdb

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// tierSig renders the full materialized state of the Power_mean_300s
// tier (mean plus its sum/count side fields) as one comparable string,
// and fails the test if any field's rows are not strictly increasing in
// time — a duplicate bucket means a rollup op was applied twice.
func tierSig(t *testing.T, db *DB, ctx string) string {
	t.Helper()
	var sb strings.Builder
	for _, field := range []string{"Reading", "Reading_sum", "Reading_count"} {
		res, err := db.Query(fmt.Sprintf(`SELECT %q FROM "Power_mean_300s"`, field))
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for _, s := range res.Series {
			last := int64(-1 << 62)
			for _, r := range s.Rows() {
				if r.Time <= last {
					t.Fatalf("%s: duplicate/unordered %s bucket at t=%d", ctx, field, r.Time)
				}
				last = r.Time
				fmt.Fprintf(&sb, "%s|%d|%v;", field, r.Time, r.Values[0])
			}
		}
	}
	return sb.String()
}

// TestWALRollupKillPoints is the kill-point matrix for incremental
// rollup maintenance: with a mean tier registered, every write batch
// logs one composite WAL record (raw points + the tier ops they
// triggered), and RollupAdvance logs another. Truncating the log at
// every byte offset and recovering must yield (a) exactly the longest
// valid prefix of raw batches, (b) a tier with no double-applied
// buckets, and (c) after re-registering the rollup and advancing, the
// exact state an uninterrupted run over that raw prefix produces.
func TestWALRollupKillPoints(t *testing.T) {
	spec := RollupSpec{Source: "Power", Field: "Reading", Aggregate: "mean", Interval: 300}
	const batches = 12
	const runNow = 3600

	master := t.TempDir()
	db, _ := crashOpen(t, master, WALOptions{Policy: FsyncNever})
	if err := db.RegisterRollup(spec); err != nil {
		t.Fatal(err)
	}
	// One point per batch: crossing a 300s bucket boundary makes that
	// batch's WAL record composite (raw + rollup ops).
	var rawBoundaries []int64
	for i := 0; i < batches; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
		db.wal.mu.Lock()
		rawBoundaries = append(rawBoundaries, db.wal.seg.size)
		db.wal.mu.Unlock()
	}
	// Clock-driven advance closes the data-incomplete tail bucket and
	// logs a points-free composite record.
	if _, err := db.RollupAdvance(runNow); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walSegmentPath(master, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Reference states: for each raw prefix length, the tier an
	// uninterrupted (never-crashed) run converges to.
	refSig := make([]string, batches+1)
	refRaw := make([]int64, batches+1)
	for k := 0; k <= batches; k++ {
		ref := Open(Options{ShardDuration: 3600})
		if err := ref.RegisterRollup(spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := ref.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ref.RollupAdvance(runNow); err != nil {
			t.Fatal(err)
		}
		refSig[k] = tierSig(t, ref, fmt.Sprintf("reference k=%d", k))
		refRaw[k] = ref.Disk().Points - tierPoints(t, ref)
	}

	for off := int64(0); off <= int64(len(data)); off++ {
		prefix := 0
		for _, b := range rawBoundaries {
			if b <= off {
				prefix++
			}
		}
		ctx := fmt.Sprintf("offset %d (prefix %d)", off, prefix)
		dir := t.TempDir()
		if err := os.WriteFile(walSegmentPath(dir, 1), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// Recovery replays composite records verbatim — the rollup is
		// not registered yet, so maintenance cannot re-run and re-apply.
		rec, _, err := OpenDurable(Options{ShardDuration: 3600}, WALOptions{Dir: dir, Policy: FsyncNever})
		if err != nil {
			t.Fatalf("%s: OpenDurable: %v", ctx, err)
		}
		if got := rec.Disk().Points - tierPoints(t, rec); got != int64(prefix) {
			t.Fatalf("%s: recovered %d raw points, want %d", ctx, got, prefix)
		}
		tierSig(t, rec, ctx) // duplicate-bucket check on the bare replayed state
		// Re-register and advance: watermark inference must pick up from
		// the replayed tier rows and converge on the reference state.
		if err := rec.RegisterRollup(spec); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if _, err := rec.RollupAdvance(runNow); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if got := tierSig(t, rec, ctx); got != refSig[prefix] {
			t.Fatalf("%s: tier diverged from uninterrupted run:\n got %s\nwant %s", ctx, got, refSig[prefix])
		}
		if got := rec.Disk().Points - tierPoints(t, rec); got != refRaw[prefix] {
			t.Fatalf("%s: raw points %d after advance, want %d", ctx, got, refRaw[prefix])
		}
	}
}

// tierPoints counts the points materialized in the mean tier (every
// bucket row carries mean + sum + count fields at one timestamp, and
// Disk().Points counts field samples per measurement write).
func tierPoints(t *testing.T, db *DB) int64 {
	t.Helper()
	return measurementPoints(db.view.Load(), "Power_mean_300s")
}

// TestWALRollupPlainWriteFormat pins the plain-record contract: a
// write that triggers no rollup ops must log the plain write record,
// byte-identical to what a DB with no registered rollups writes.
func TestWALRollupPlainWriteFormat(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	dbA, _ := crashOpen(t, dirA, WALOptions{Policy: FsyncNever})
	dbB, _ := crashOpen(t, dirB, WALOptions{Policy: FsyncNever})
	// B has a rollup registered but the batch closes no bucket, so no
	// ops are emitted and the record must stay in the plain format.
	if err := dbB.RegisterRollup(RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{dbA, dbB} {
		if err := db.WritePoint(walPoint("n1", 60, 42)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(walSegmentPath(dirA, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(walSegmentPath(dirB, 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("op-free write changed the WAL record format:\n a=%x\n b=%x", a, b)
	}
}
