package tsdb

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenV4Snapshot is db.Snapshot of v4FixtureDB as written by the
// last build whose snapshots were version 4 (raw tails as 17-byte
// samples). This build no longer writes it; it stays as the upgrade
// fixture: a version 4 checkpoint may be the only copy of the data
// whose log segments it truncated.
const goldenV4Snapshot = "" +
	"4d545344040044000000387ad07b100e0000000000000d000000000000000d00" +
	"0000000000000d0000000000000002000000000000000200000000000000f706" +
	"0000000000000700000000000000020000001c00000008049a20000000000000" +
	"00000a0000000000000034020000000000000100000030020000aa7a22450500" +
	"0000506f77657201000000060000004e6f64654964020000006e313402000000" +
	"0000000400000003000000417578010000000000000000000000b40000000000" +
	"0000040000004000000000000000000a00000004020078000000020203010000" +
	"00f000000000000000010100000000000000030000004d697802000000000000" +
	"0000000000b40000000000000004000000400000000000000000170000000401" +
	"007800000000000000000000c457ffc257ffd61e80f000000000000000a40100" +
	"000000000004000000400000000000000000150000000401e003780000401800" +
	"0000000000da0fa83fda1702000000e00100000000000002020000004f4b1c02" +
	"000000000000030103000000526177020000000000000000000000b400000000" +
	"000000040000004000000000000000000a0000000402007800000d060606f000" +
	"000000000000a401000000000000040000004000000000000000000b00000004" +
	"02e0037800000a06060602000000e0010000000000000111000000000000001c" +
	"020000000000000114000000000000000700000052656164696e670200000000" +
	"00000000000000b4000000000000000400000040000000000000000013000000" +
	"0401007800004069000000000000e807983c80f000000000000000a401000000" +
	"00000004000000400000000000000000140000000401e0037800004069200000" +
	"000000e807983c8002000000e0010000000000000000000000004069401c0200" +
	"00000000000000000000004869401c000000b018903a100e0000000000000300" +
	"000000000000720000000000000001000000c50000006dc277b9040000004d65" +
	"746100000000720000000000000003000000040000006a6f6273000000000300" +
	"0000740e000000000000010300000000000000b00e0000000000000104000000" +
	"00000000ec0e0000000000000105000000000000000500000073746174650000" +
	"000003000000740e00000000000002020000006f6bb00e000000000000020200" +
	"00006f6bec0e00000000000002020000006f6b02000000757000000000030000" +
	"00740e0000000000000301b00e0000000000000300ec0e0000000000000301"

// v4FixtureDB writes the points goldenV4Snapshot was exported from: in
// a one-hour shard, a float, an int, a mixed and a gapped column, each
// with sealed blocks and a raw tail (a one-point tail for the gapped
// one), and in a second shard a tail-only series of strings, bools and
// ints.
func v4FixtureDB(t testing.TB) *DB {
	t.Helper()
	db := Open(Options{ShardDuration: 3600, BlockSize: 4})
	for i := 0; i < 10; i++ {
		mix := Float(float64(i) * 1.5)
		switch i {
		case 8:
			mix = Str("OK")
		case 9:
			mix = Bool(true)
		}
		fields := map[string]Value{"Reading": Float(200 + float64(i)*0.25), "Raw": Int(int64(i*3 - 7)), "Mix": mix}
		if i < 5 {
			fields["Aux"] = Int(int64(i % 3))
		}
		if err := db.WritePoint(Point{
			Measurement: "Power",
			Tags:        Tags{{Key: "NodeId", Value: "n1"}},
			Fields:      fields,
			Time:        int64(i * 60),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := db.WritePoint(Point{
			Measurement: "Meta",
			Fields:      map[string]Value{"state": Str("ok"), "up": Bool(i != 1), "jobs": Int(int64(i + 3))},
			Time:        int64(3700 + i*60),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func goldenV4(t testing.TB) []byte {
	t.Helper()
	b, err := hex.DecodeString(goldenV4Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var v4Statements = []string{
	`SELECT "Reading", "Raw", "Mix", "Aux" FROM "Power"`,
	`SELECT max("Reading"), count("Mix"), last("Aux") FROM "Power" WHERE time >= 0 AND time < 3600 GROUP BY time(2m), *`,
	`SELECT "state", "up", "jobs" FROM "Meta"`,
	`SHOW FIELD KEYS`,
	`SHOW SERIES`,
}

// sameDB requires got to answer every v4Statements query
// reflect.DeepEqual to want, with identical Stats (WriteWaitNs, a
// timing, aside), Compression and Disk.
func sameDB(t *testing.T, state string, got, want *DB) {
	t.Helper()
	stats := func(db *DB) DBStats {
		st := db.Stats()
		st.WriteWaitNs = 0
		return st
	}
	if g, w := stats(got), stats(want); g != w {
		t.Errorf("%s: stats %+v, want %+v", state, g, w)
	}
	if g, w := got.Compression(), want.Compression(); g != w {
		t.Errorf("%s: compression %+v, want %+v", state, g, w)
	}
	if g, w := got.Disk(), want.Disk(); g != w {
		t.Errorf("%s: disk %+v, want %+v", state, g, w)
	}
	for _, stmt := range v4Statements {
		g, err := got.Query(stmt)
		if err != nil {
			t.Fatalf("%s: %s: %v", state, stmt, err)
		}
		w, err := want.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Series, w.Series) {
			t.Errorf("%s: %s answers\n%+v\nwant\n%+v", state, stmt, g.Series, w.Series)
		}
	}
}

// TestSnapshotV4Restores restores the version 4 fixture under this
// build: every answer and every counter is the live DB's.
func TestSnapshotV4Restores(t *testing.T) {
	got, err := RestoreOptions(bytes.NewReader(goldenV4(t)), Options{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := v4FixtureDB(t)
	if cs := want.Compression(); cs.BlocksSealed == 0 || cs.TailPoints == 0 {
		t.Fatalf("fixture holds no sealed blocks or no tail: %+v", cs)
	}
	sameDB(t, "version 4 restore", got, want)
}

// TestSnapshotV4Upgrade puts the version 4 fixture where a checkpoint
// of the previous build left it, then opens, checkpoints and reopens
// the directory: the data survives the upgrade, and the new checkpoint
// is version 5.
func TestSnapshotV4Upgrade(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(snapshotPath(dir, 1), goldenV4(t), 0o644); err != nil {
		t.Fatal(err)
	}
	opts, wopts := Options{BlockSize: 4}, WALOptions{Dir: dir, Policy: FsyncNever}
	db, info, err := OpenDurable(opts, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded {
		t.Fatal("the version 4 snapshot was not loaded")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.mtsd"))
	if err != nil || len(snaps) != 1 || snaps[0] == snapshotPath(dir, 1) {
		t.Fatalf("snapshots after the checkpoint: %v, %v", snaps, err)
	}
	file, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	d := &decoder{b: file[:fileHeaderSize]}
	if ver := d.fileHeader(snapshotMagic); d.end() != nil || ver != 5 {
		t.Fatalf("checkpoint written as version %d (%v), want 5", ver, d.end())
	}
	if db, _, err = OpenDurable(opts, wopts); err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	sameDB(t, "upgraded", db, v4FixtureDB(t))
}
