package tsdb

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// viewFingerprint is everything a reader of a pinned view can observe:
// the serialized shards (cold blocks as references) plus a deep copy
// of the index, which the snapshot leaves out.
type viewFingerprint struct {
	snap  []byte
	index map[string]measurementIndex
}

func fingerprint(t *testing.T, db *DB, v *dbView) viewFingerprint {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshotView(v, db.shardDuration, &buf, false); err != nil {
		t.Fatal(err)
	}
	fp := viewFingerprint{snap: buf.Bytes(), index: make(map[string]measurementIndex)}
	for name, mi := range v.index {
		c := measurementIndex{byTag: make(map[string]map[string][]string), series: make(map[string]Tags), fields: maps.Clone(mi.fields)}
		for k, vals := range mi.byTag {
			c.byTag[k] = make(map[string][]string)
			for val, keys := range vals {
				c.byTag[k][val] = slices.Clone(keys)
			}
		}
		for key, tags := range mi.series {
			c.series[key] = slices.Clone(tags)
		}
		fp.index[name] = c
	}
	return fp
}

// TestDerivationsLeaveBaseViewIntact pins the published view, runs one
// mutation while a reader scans the pinned view, and requires
// everything the pinned view holds to be as it was: every derivation
// is copy-on-write, whatever it clones.
func TestDerivationsLeaveBaseViewIntact(t *testing.T) {
	// "m" has two series over two 1 h shards: 104 minutely points each,
	// so each shard holds sealed blocks of 8 and a 4-point tail. A 5 m
	// max tier rolls "m" up. "sparse" is one block whose samples sit
	// 600 s apart; "scratch" makes a spilled segment mostly garbage once
	// it is dropped.
	fixture := func(t *testing.T) *DB {
		db := Open(Options{BlockSize: 8, ShardDuration: 3600, ColdDir: t.TempDir()})
		if err := db.RegisterRollup(RollupSpec{Source: "m", Field: "f", Aggregate: "max", Interval: 300}); err != nil {
			t.Fatal(err)
		}
		var pts []Point
		for i := 0; i < 104; i++ {
			for s := 0; s < 2; s++ {
				pts = append(pts, Point{Measurement: "m", Tags: Tags{{"id", fmt.Sprintf("s%d", s)}},
					Fields: map[string]Value{"f": Float(float64(i*2 + s))}, Time: int64(i * 60)})
			}
			pts = append(pts, Point{Measurement: "scratch", Tags: Tags{{"id", "s0"}},
				Fields: map[string]Value{"v": Float(float64(i) * 1.000001), "w": Float(float64(i) * 1.000003)}, Time: int64(i * 60)})
		}
		for i := 0; i < 8; i++ {
			pts = append(pts, Point{Measurement: "sparse", Fields: map[string]Value{"f": Float(float64(i))}, Time: int64(i * 600)})
		}
		if err := db.WritePoints(pts); err != nil {
			t.Fatal(err)
		}
		return db
	}
	write := func(times ...int64) func(*DB) error {
		return func(db *DB) error {
			var pts []Point
			for _, ts := range times {
				pts = append(pts, Point{Measurement: "m", Tags: Tags{{"id", "s0"}}, Fields: map[string]Value{"f": Float(-1)}, Time: ts})
			}
			return db.WritePoints(pts)
		}
	}
	rangeClear := func(name string, start, end int64) func(*DB) error {
		return func(db *DB) error {
			_, err := db.clearRange(name, start, end)
			return err
		}
	}
	drop := func(name string) func(*DB) error {
		return func(db *DB) error {
			_, err := db.DropMeasurement(name)
			return err
		}
	}
	spill := func(db *DB) error {
		_, err := db.SpillCold(math.MaxInt64)
		return err
	}
	cases := []struct {
		name    string
		prep    func(*DB) error
		mutate  func(*DB) error
		publish bool
	}{
		// The tails are regular: an in-order write extends the prefix,
		// an off-cadence one starts a suffix, and a write onto a
		// three-time suffix (a new shard's tail, two on the minute grid
		// and three off it) lands in spare capacity the pinned view
		// shares.
		{name: "in-order write", mutate: write(104 * 60), publish: true},
		{name: "off-cadence write", mutate: write(104*60 + 7), publish: true},
		{name: "write onto a suffix", prep: write(7200, 7260, 7267, 7300, 7400), mutate: write(7460), publish: true},
		{name: "write behind a sealed block", mutate: write(5*60 + 30), publish: true},
		{name: "unsorted-tag two-field write", mutate: func(db *DB) error {
			two := map[string]Value{"e": Float(1), "g": Float(2)}
			return db.WritePoints([]Point{
				{Measurement: "m", Tags: Tags{{"zone", "z"}, {"id", "s0"}}, Fields: two, Time: 104 * 60},
				{Measurement: "m", Tags: Tags{{"id", "s1"}}, Fields: two, Time: 104 * 60},
				{Measurement: "scratch", Tags: Tags{{"id", "s0"}}, Fields: map[string]Value{"v": Float(3), "w": Float(4)}, Time: 104 * 60},
			})
		}, publish: true},
		{name: "clear over blocks", mutate: rangeClear("m", 10*60, 20*60), publish: true},
		{name: "clear of a tail only", mutate: rangeClear("m", 101*60, 102*60), publish: true},
		{name: "header-only clear", mutate: rangeClear("sparse", 100, 500)},
		{name: "drop", mutate: drop("m"), publish: true},
		{name: "drop of a rollup target", mutate: drop("m_max_300s"), publish: true},
		{name: "delete before", mutate: func(db *DB) error { _, err := db.DeleteBefore(3600); return err }, publish: true},
		{name: "spill", mutate: spill, publish: true},
		{name: "compaction", prep: func(db *DB) error {
			if err := spill(db); err != nil {
				return err
			}
			return drop("scratch")(db)
		}, mutate: func(db *DB) error {
			n := db.ColdStats().Compactions
			if err := db.compactCold(); err != nil {
				return err
			}
			if db.ColdStats().Compactions == n {
				return fmt.Errorf("no segment file was rewritten")
			}
			return nil
		}, publish: true},
	}
	var queries []*Query
	for _, stmt := range []string{
		`SELECT "f" FROM "m" GROUP BY "id"`,
		`SELECT max("f") FROM "m_max_300s" GROUP BY time(1h)`,
		`SELECT count("f") FROM "sparse"`,
	} {
		q, err := Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := fixture(t)
			if tc.prep != nil {
				if err := tc.prep(db); err != nil {
					t.Fatal(err)
				}
			}
			base := db.view.Load()
			want := fingerprint(t, db, base)
			scan := func() []Result {
				out := make([]Result, len(queries))
				for i, q := range queries {
					res, err := db.execView(context.Background(), base, q)
					if err != nil {
						t.Error(err)
						return nil
					}
					out[i] = *res
					out[i].Stats = QueryStats{}
				}
				return out
			}
			wantRes := scan()
			started, stop, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(finished)
				for first := true; ; first = false {
					got := scan()
					if first {
						close(started)
					}
					if !reflect.DeepEqual(got, wantRes) {
						t.Error("pinned view's answers changed under the mutation")
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			<-started
			err := tc.mutate(db)
			close(stop)
			<-finished
			if err != nil {
				t.Fatal(err)
			}
			if published := db.view.Load() != base; published != tc.publish {
				t.Fatalf("published a new view: %t, want %t", published, tc.publish)
			}
			got := fingerprint(t, db, base)
			if !bytes.Equal(got.snap, want.snap) {
				t.Error("pinned view's shards changed")
			}
			if !reflect.DeepEqual(got.index, want.index) {
				t.Error("pinned view's index changed")
			}
		})
	}
}

// TestClearRangeAndUnsealMemoizeOnlyWhatTheCacheCharges: maintenance
// decodes (a range clear's unseal, an out-of-order write's) go through
// no decode cache, so they must leave no payload memoized on a block
// the view keeps — one the cache never admitted, which neither eviction
// nor purgeDead could ever free.
func TestClearRangeAndUnsealMemoizeOnlyWhatTheCacheCharges(t *testing.T) {
	charged := func(t *testing.T, db *DB, when string) {
		t.Helper()
		if cached, entries := db.Compression().BlocksCached, db.CacheStats().Entries; cached != int64(entries) {
			t.Fatalf("%s: %d blocks hold a decoded payload, the cache charges %d", when, cached, entries)
		}
	}
	t.Run("header-only clear", func(t *testing.T) {
		db := Open(Options{BlockSize: 8})
		for i := 0; i < 8; i++ {
			if err := db.WritePoint(Point{Measurement: "m", Fields: map[string]Value{"f": Float(float64(i))}, Time: int64(i * 600)}); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := db.clearRange("m", 100, 500); err != nil || n != 0 {
			t.Fatalf("clear removed %d (err %v), want 0", n, err)
		}
		charged(t, db, "after the clear")
		if _, err := db.Query(`SELECT count("f") FROM "m"`); err != nil {
			t.Fatal(err)
		}
		charged(t, db, "after a scan")
	})
	t.Run("unseal failing on a cold block", func(t *testing.T) {
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
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, intact[:len(intact)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := db.WritePoint(coldPoint("n1", 30, 1)); err == nil {
			t.Fatal("write behind an unreadable cold block succeeded")
		}
		charged(t, db, "after the failed unseal")
	})
}
