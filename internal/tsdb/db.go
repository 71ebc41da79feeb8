package tsdb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monster/internal/clock"
)

// DefaultShardDuration is the time width of one shard in seconds (one
// day, matching InfluxDB's default retention-policy shard group
// duration for short retention policies).
const DefaultShardDuration = 24 * 60 * 60

// Options configures a DB.
type Options struct {
	// ShardDuration is the shard width in seconds. Zero selects
	// DefaultShardDuration.
	ShardDuration int64

	// BlockSize is the seal threshold in points: when a column's raw
	// tail reaches this length, the write batch compresses full runs
	// into immutable Gorilla-encoded blocks (see block.go). Zero or
	// negative selects DefaultBlockSize; above 1<<24 points, the largest
	// block a reader accepts, it is clamped to 1<<24.
	BlockSize int

	// DecodeCacheBytes bounds the total resident bytes of decoded
	// sealed-block payloads (the age-based retention tier for memory —
	// see cache.go), each charged its decoded size: 8 B per numeric
	// point of a fixed-cadence block, 16 B of an irregular one. Zero or
	// negative selects a 64 MiB default.
	DecodeCacheBytes int64

	// ColdDir, when non-empty, enables the file-backed cold tier:
	// SpillCold moves sealed block payloads into CRC-framed segment
	// files under this directory and queries read them back on demand
	// (see coldtier.go). Empty keeps every sealed block resident.
	ColdDir string

	// ColdMaxResidentBytes bounds the compressed bytes of sealed
	// blocks kept in memory when the cold tier is enabled: SpillCold
	// spills oldest-first past the budget even before the age cutoff.
	// Zero or negative means age-based spilling only.
	ColdMaxResidentBytes int64
}

// DB is an in-process time-series database: a set of measurements, each
// holding tag-indexed series, stored in time-window shards.
//
// DB is safe for concurrent use. The entire database state lives in an
// immutable dbView published through an atomic pointer: readers load
// the current view and run lock-free against that consistent snapshot,
// so queries never block behind a write batch and always see a batch
// in its entirety or not at all. Every mutator derives the next view
// copy-on-write and installs it through commit (see view.go), which
// serializes on writeMu, logs and publishes.
type DB struct {
	shardDuration int64
	// execWorkers bounds Exec's worker pool; zero sizes it
	// automatically (execWorkersFor). Tests set it after Open.
	execWorkers int
	blockSize   int // resolved seal threshold, always positive
	clock       clock.Clock

	// cache charge-accounts decoded block payloads against one global
	// budget (see cache.go). Set once at Open, never nil.
	cache *decodeCache

	// cold is the file-backed segment tier sealed blocks spill into
	// (see coldtier.go). Nil unless Options.ColdDir is set; set once at
	// Open and never changed.
	cold *coldTier

	writeMu sync.Mutex
	view    atomic.Pointer[dbView]

	// rollups is the registry of engine-level rollup tiers the planner
	// and write-path maintenance consult (see rollup.go). Registration
	// swaps the pointer under writeMu; readers load it lock-free.
	rollups atomic.Pointer[rollupRegistry]

	// wal, when non-nil, receives every mutation's record before commit
	// publishes it — the durability layer OpenDurable attaches (see
	// wal.go). It is set
	// once before the DB is shared and never changes.
	wal *WAL
}

type measurementIndex struct {
	byTag  map[string]map[string][]string // tag key -> value -> series keys
	series map[string]Tags                // series key -> sorted tags
	fields map[string]ValueKind           // field key -> first-seen kind
}

// DBStats aggregates engine-wide counters.
type DBStats struct {
	PointsWritten  int64
	BatchesWritten int64
	SeriesCreated  int64
	Measurements   int
	// WriteWaitNs is cumulative time writers spent waiting to acquire
	// the write path (the store-side contention signal mirrored into
	// collector.Stats and /v1/stats).
	WriteWaitNs int64
	// BlocksSealed counts columns runs compressed into immutable
	// blocks since open (restored snapshots carry the counter over).
	BlocksSealed int64
}

// Open creates an empty DB.
func Open(opts Options) *DB {
	sd := opts.ShardDuration
	if sd <= 0 {
		sd = DefaultShardDuration
	}
	bs := min(opts.BlockSize, maxBlockPoints)
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	budget := opts.DecodeCacheBytes
	if budget <= 0 {
		budget = defaultDecodeCacheBytes
	}
	db := &DB{
		shardDuration: sd,
		blockSize:     bs,
		clock:         clock.NewReal(),
		cache:         newDecodeCache(budget),
	}
	if opts.ColdDir != "" {
		// Directory creation is deferred to the first spill (and
		// latched): Open cannot return an error, and a read-only
		// restore should not need write access.
		db.cold = newColdTier(opts.ColdDir, opts.ColdMaxResidentBytes)
	}
	db.view.Store(&dbView{
		shards: make(map[int64]*shard),
		index:  make(map[string]*measurementIndex),
	})
	return db
}

// lockWrite serializes a mutator and reports how long it waited.
func (db *DB) lockWrite() time.Duration {
	t0 := db.clock.Now()
	db.writeMu.Lock()
	return db.clock.Now().Sub(t0)
}

func (db *DB) unlockWrite() { db.writeMu.Unlock() }

// WritePoints stores a batch of points. The batch is validated first;
// on error nothing is written. Tag sets are canonicalized (sorted) on
// ingest. Concurrent queries keep running against the previous snapshot
// and switch to the new one atomically when the batch publishes.
//
// On a durable DB (OpenDurable) the batch — including any rollup
// maintenance it triggered — is appended to the write-ahead log before
// it publishes; a log failure rejects the write so an acknowledged
// batch is always recoverable.
func (db *DB) WritePoints(points []Point) error {
	for i := range points {
		if err := points[i].Validate(); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return db.commit(func(v *dbView) (*dbView, *walRecord, error) {
		nv, written, err := db.writePointsView(v, points)
		if err != nil || len(points) == 0 {
			return nv, nil, err
		}
		nv, ops, err := db.rollupMaintain(nv, points)
		// A batch that triggered no tier op logs the plain write record;
		// maintenance work rides in one composite record so a crash can
		// never tear a raw write from the rollup rows it produced.
		if len(ops) == 0 {
			return nv, &walRecord{op: walOpWrite, points: points, series: written}, err
		}
		return nv, &walRecord{op: walOpBatch, points: points, series: written, ops: ops}, err
	})
}

// Epoch reports the DB's mutation epoch: a counter bumped by every
// write batch, measurement drop, and retention sweep that changes
// stored data. Two reads that see the same epoch saw the same data.
func (db *DB) Epoch() int64 {
	return db.view.Load().epoch
}

// WritePoint stores a single point.
func (db *DB) WritePoint(p Point) error { return db.WritePoints([]Point{p}) }

// mod is a floored modulo that behaves for negative timestamps.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Measurements lists measurement names in sorted order.
func (db *DB) Measurements() []string {
	v := db.view.Load()
	out := make([]string, 0, len(v.index))
	for m := range v.index {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// SeriesCardinality reports the number of distinct series in a
// measurement ("" for the whole DB). Query cost scales with this
// number — the property the paper's schema redesign attacks.
func (db *DB) SeriesCardinality(measurement string) int {
	v := db.view.Load()
	if measurement != "" {
		if mi, ok := v.index[measurement]; ok {
			return len(mi.series)
		}
		return 0
	}
	n := 0
	for _, mi := range v.index {
		n += len(mi.series)
	}
	return n
}

// TagValues lists the distinct values of a tag key within a
// measurement, sorted.
func (db *DB) TagValues(measurement, tagKey string) []string {
	v := db.view.Load()
	mi, ok := v.index[measurement]
	if !ok {
		return nil
	}
	vals, ok := mi.byTag[tagKey]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(vals))
	for val := range vals {
		out = append(out, val)
	}
	sort.Strings(out)
	return out
}

// FieldKinds reports the field keys and first-seen kinds of a
// measurement.
func (db *DB) FieldKinds(measurement string) map[string]ValueKind {
	v := db.view.Load()
	mi, ok := v.index[measurement]
	if !ok {
		return nil
	}
	out := make(map[string]ValueKind, len(mi.fields))
	for k, kind := range mi.fields {
		out[k] = kind
	}
	return out
}

// Stats returns engine-wide counters.
func (db *DB) Stats() DBStats {
	return db.view.Load().stats
}

// DiskStats aggregates per-shard size accounting.
type DiskStats struct {
	Shards     int
	Points     int64
	DataBytes  int64
	IndexBytes int64
}

// TotalBytes is data plus index bytes.
func (d DiskStats) TotalBytes() int64 { return d.DataBytes + d.IndexBytes }

// Disk reports the engine's encoded data volume. Volumes are exact
// encoded sizes of the stored points, the quantity compared in Fig 13.
func (db *DB) Disk() DiskStats {
	v := db.view.Load()
	var d DiskStats
	d.Shards = len(v.shards)
	for _, sh := range v.shards {
		d.Points += sh.points
		d.DataBytes += sh.bytes
		d.IndexBytes += int64(sh.keyBytes)
	}
	return d
}

// CompressionStats reports the sealed-block tier's effect on stored
// data volume, computed against the current view. BytesRaw is the
// canonical encoded size of every live sample (what the engine stored
// before the block tier existed); BytesCompressed is what the sealed
// representation actually occupies — block payloads plus headers plus
// the raw hot tail.
type CompressionStats struct {
	BlocksSealed       int64 // cumulative seals since open (DBStats counter)
	Blocks             int64 // sealed blocks currently live
	BlocksCached       int64 // live blocks holding a decoded payload cache
	BlocksCold         int64 // live blocks whose compressed payload lives on disk
	SealedPoints       int64 // samples inside sealed blocks
	TailPoints         int64 // samples in raw hot tails
	TailExplicitPoints int64 // tail samples whose time is kept after the regular prefix (see timeVec)
	BytesRaw           int64
	BytesCompressed    int64
}

// Ratio is the raw-to-compressed volume quotient (1 when nothing is
// sealed yet).
func (c CompressionStats) Ratio() float64 {
	if c.BytesCompressed == 0 {
		return 1
	}
	return float64(c.BytesRaw) / float64(c.BytesCompressed)
}

// Compression walks the current view and totals the block tier's
// accounting — the numbers behind /v1/stats' storage_bytes_raw /
// storage_bytes_compressed / compression_ratio fields.
func (db *DB) Compression() CompressionStats {
	v := db.view.Load()
	cs := CompressionStats{BlocksSealed: v.stats.BlocksSealed}
	for _, sh := range v.shards {
		for _, sr := range sh.series {
			for _, f := range sr.fields {
				col := f.col
				for _, blk := range col.blocks {
					cs.Blocks++
					cs.SealedPoints += int64(blk.count)
					cs.BytesRaw += blk.rawBytes
					// Cold payloads still count: BytesCompressed is the
					// sealed representation's storage volume wherever it
					// lives; the memory split is ColdStats' job.
					cs.BytesCompressed += int64(blk.compressedLen()) + blockHeaderBytes
					if blk.cold != nil {
						cs.BlocksCold++
					}
					if blk.cache.Load() != nil {
						cs.BlocksCached++
					}
				}
				n := int64(col.times.len())
				sz := 8*n + col.vals.encodedSize()
				cs.TailPoints += n
				cs.TailExplicitPoints += int64(len(col.times.t))
				cs.BytesRaw += sz
				cs.BytesCompressed += sz
			}
		}
	}
	return cs
}

// ShardStats lists per-shard statistics in time order.
func (db *DB) ShardStats() []ShardStats {
	v := db.view.Load()
	out := make([]ShardStats, 0, len(v.shardStarts))
	for _, s := range v.shardStarts {
		out = append(out, v.shards[s].stats())
	}
	return out
}

// DropMeasurement removes a measurement: its index entries and all its
// stored series data. It reports whether the measurement existed. On a
// durable DB the drop is write-ahead logged before it applies; a log
// failure leaves the measurement in place.
func (db *DB) DropMeasurement(name string) (bool, error) {
	found := false
	err := db.commit(func(v *dbView) (*dbView, *walRecord, error) {
		nv := dropMeasurementView(v, name)
		found = nv != nil
		return nv, &walRecord{op: walOpDrop, name: name}, nil
	})
	return found && err == nil, err
}

// DeleteBefore drops whole shards whose window ends at or before t
// (retention enforcement). It reports the number of shards dropped.
// Series index entries are retained (matching InfluxDB, where the
// in-memory index survives shard drops until a restart). On a durable
// DB the sweep is write-ahead logged before it applies.
func (db *DB) DeleteBefore(t int64) (int, error) {
	dropped := 0
	err := db.commit(func(v *dbView) (nv *dbView, _ *walRecord, _ error) {
		nv, dropped = deleteBeforeView(v, t)
		return nv, &walRecord{op: walOpDeleteBefore, before: t}, nil
	})
	if err != nil {
		return 0, err
	}
	return dropped, nil
}

// DeleteMeasurementBefore removes one measurement's samples with
// time < t, reporting how many points were deleted. Unlike the
// shard-granular DeleteBefore, this surgically rewrites overlapping
// columns — the raw-tier expiry path, where raw data ages out while
// its covering rollup measurements (and unrelated raw measurements in
// the same shards) stay. On a durable DB the clear is write-ahead
// logged before it applies. A sealed block the rewrite needs but cannot
// read back fails the delete and leaves the data as it was.
func (db *DB) DeleteMeasurementBefore(name string, t int64) (int64, error) {
	return db.clearRange(name, minInt64, t)
}

// clearRange removes measurement name's samples in [start, end) and
// reports how many points went: DeleteMeasurementBefore's body, and the
// replay of the walOpClearRange record it logs.
func (db *DB) clearRange(name string, start, end int64) (int64, error) {
	var removed int64
	err := db.commit(func(v *dbView) (nv *dbView, _ *walRecord, err error) {
		nv, removed, err = clearMeasurementRangeView(v, name, start, end, db.blockSize)
		return nv, &walRecord{op: walOpClearRange, name: name, start: start, end: end}, err
	})
	if err != nil {
		return 0, err
	}
	return removed, nil
}

// ExpireRaw ages out raw-tier data that a registered rollup already
// covers: for every rollup source measurement, samples older than
// min(cutoff, every covering rollup's watermark) are deleted. The
// watermark bound guarantees a bucket is never expired before each of
// its rollups materialized it, so coarse dashboard queries keep exact
// answers while the raw tier shrinks to the configured horizon. It
// reports total points removed.
func (db *DB) ExpireRaw(cutoff int64) (int64, error) {
	reg := db.rollups.Load()
	if reg == nil {
		return 0, nil
	}
	// Collect the safe cutoff per root source: bounded by the least
	// advanced rollup materialized from it (directly or via a chain).
	v := db.view.Load()
	safe := make(map[string]int64)
	for _, cr := range reg.specs {
		c, ok := safe[cr.root]
		if !ok {
			c = cutoff
		}
		wm, ok := inferWatermark(v, cr)
		if !ok {
			wm = minInt64 // nothing materialized yet: nothing expires
		}
		safe[cr.root] = min(c, wm)
	}
	var total int64
	for source, c := range safe {
		if c <= minInt64 {
			continue
		}
		n, err := db.DeleteMeasurementBefore(source, c)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
