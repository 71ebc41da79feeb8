package tsdb

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// File-backed cold tier: sealed blocks spilled to per-shard segment
// files.
//
// The decode cache (PR 7) bounds *decoded* payload bytes, but every
// sealed block's compressed bytes still lived in memory forever, so
// the process footprint grew with total history instead of the hot
// set. The cold tier is the other half of the hot/cold split (the
// cc-metric-store checkpoint/archive shape): DB.SpillCold appends the
// compressed payload of sealed blocks past an age cutoff — and, under
// Options.ColdMaxResidentBytes, the oldest resident blocks beyond the
// cutoff until the budget holds — to an append-only per-shard segment
// file, fsyncs it, and republishes the view with each spilled block
// replaced by a twin that keeps only the header (minT/maxT/count/
// rawBytes) plus a file reference. Queries stay transparent:
// block.decode reads the payload back with one pread, verifies its
// CRC, decodes, and admits to the decode cache exactly like a
// resident block (QueryStats.BlocksFromDisk counts the reads).
//
// Segment file layout (cold-<shardStart>-<generation>.seg), a
// segment.go file whose header and frames are the shared codec's:
//
//	file header "MCLD" version 1 | shardStart i64
//	then one frame per spilled block, its payload the block's
//	compressed bytes verbatim
//
// Files are append-only, and every process run spills into a fresh
// generation — a restarted process never appends to a file an earlier
// run wrote, so a torn tail left by a crash can never end up beneath
// later live frames. Crash safety is sequenced, not logged: a spill
// fsyncs the segment before the view holding cold references
// publishes, and only a checkpoint snapshot persists references, so
// every reference recovery can see points at bytes that were durable
// before the snapshot renamed into place. Frames no
// live reference touches (dropped measurements, expired shards,
// crashed spills, re-seals after an out-of-order unseal) are garbage:
// compaction at checkpoint rewrites mostly-dead files into a fresh
// generation, and sweepOrphans deletes files with no reference in
// either the just-written snapshot or the live view.
const (
	coldMagic      = "MCLD"
	coldVersion    = 1
	coldHeaderSize = fileHeaderSize + 8
)

// errColdCorrupt marks unreadable or failed-verification cold data.
var errColdCorrupt = errors.New("tsdb: corrupt cold segment")

// coldTier owns the segment directory: appenders (one active
// generation per shard), read handles, and counters. All file-set
// mutation happens under mu; payload preads run outside it on shared
// handles (ReadAt is concurrency-safe).
type coldTier struct {
	fs          fsys
	dir         string
	maxResident int64 // resident compressed sealed bytes budget; <=0 = none

	mu        sync.Mutex
	inited    bool
	initErr   error
	files     map[string]*segment // every open handle, by file name
	appenders map[int64]*segment  // active append segment per shard start
	nextGen   map[int64]uint64
	retired   []*segment // unlinked by a sweep; closed on the next one

	spills         atomic.Int64
	spilledBytes   atomic.Int64
	reads          atomic.Int64
	readBytes      atomic.Int64
	compactions    atomic.Int64
	reclaimedBytes atomic.Int64
	orphansDropped atomic.Int64
}

// coldRef locates one block payload inside a segment file. Immutable
// after construction; blocks holding one have data == nil.
type coldRef struct {
	ct     *coldTier
	file   string
	off    int64
	length uint32
	crc    uint32
}

func newColdTier(fs fsys, dir string, maxResident int64) *coldTier {
	return &coldTier{
		fs:          fs,
		dir:         dir,
		maxResident: maxResident,
		files:       make(map[string]*segment),
		appenders:   make(map[int64]*segment),
		nextGen:     make(map[int64]uint64),
	}
}

func coldFileName(shardStart int64, gen uint64) string {
	return fmt.Sprintf("cold-%d-%08d.seg", shardStart, gen)
}

// parseColdName extracts the shard start and generation from a segment
// file name; round-tripping through coldFileName rejects lookalikes
// (and, for names arriving from a snapshot, anything path-shaped).
func parseColdName(name string) (shardStart int64, gen uint64, ok bool) {
	var s int64
	var g uint64
	if _, err := fmt.Sscanf(name, "cold-%d-%d.seg", &s, &g); err != nil {
		return 0, 0, false
	}
	if name != coldFileName(s, g) {
		return 0, 0, false
	}
	return s, g, true
}

// coldGen is the listDir parser for segment names: the generation.
func coldGen(name string) (uint64, bool) {
	_, gen, ok := parseColdName(name)
	return gen, ok
}

// initLocked creates the directory and scans existing generations so
// this run appends only to fresh files. Lazy and latching: Open cannot
// return an error, so the first spill reports directory problems.
func (ct *coldTier) initLocked() error {
	if ct.inited {
		return ct.initErr
	}
	ct.inited = true
	ct.initErr = func() error {
		if err := mkdirAll(ct.fs, ct.dir); err != nil {
			return fmt.Errorf("tsdb: cold tier: %w", err)
		}
		files, err := listDir(ct.fs, ct.dir, coldGen)
		if err != nil {
			return fmt.Errorf("tsdb: cold tier: %w", err)
		}
		for _, file := range files {
			shard, gen, _ := parseColdName(file.name)
			ct.nextGen[shard] = max(ct.nextGen[shard], gen+1)
		}
		return nil
	}()
	return ct.initErr
}

// appendPayload appends one CRC-framed compressed payload to
// shardStart's active segment, opening a fresh generation when the
// shard has none, and returns its reference. The reference must not be
// published until syncAppenders succeeds. A failed append (cut back
// off the file by segment.append) retires the appender.
func (ct *coldTier) appendPayload(shardStart int64, payload []byte, compacting bool) (*coldRef, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty frame payload", errColdCorrupt)
	}
	frame := append(openFrame(make([]byte, 0, frameHeader+len(payload))), payload...)
	crc, err := sealFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("tsdb: cold tier: %w", err)
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if err := ct.initLocked(); err != nil {
		return nil, err
	}
	seg := ct.appenders[shardStart]
	if seg == nil {
		gen := ct.nextGen[shardStart]
		ct.nextGen[shardStart] = gen + 1
		hdr := le.AppendUint64(appendFileHeader(nil, coldMagic, coldVersion), uint64(shardStart))
		if seg, err = createSegment(ct.fs, ct.dir, coldFileName(shardStart, gen), hdr); err != nil {
			return nil, fmt.Errorf("tsdb: cold tier: %w", err)
		}
		ct.files[seg.name] = seg
		ct.appenders[shardStart] = seg
	}
	off := seg.size + frameHeader
	if err := seg.append(frame); err != nil {
		delete(ct.appenders, shardStart)
		return nil, fmt.Errorf("tsdb: cold tier: %w", err)
	}
	if !compacting {
		ct.spills.Add(1)
		ct.spilledBytes.Add(int64(len(payload)))
	}
	return &coldRef{ct: ct, file: seg.name, off: off, length: uint32(len(payload)), crc: crc}, nil
}

// syncAppenders fsyncs every segment with unsynced appends. Callers
// publish cold references only after it returns nil — that ordering is
// the entire crash-safety argument for spills. A segment whose fsync
// fails is retired like one whose append failed.
func (ct *coldTier) syncAppenders() error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for shard, seg := range ct.appenders {
		if !seg.dirty {
			continue
		}
		if err := seg.sync(); err != nil {
			delete(ct.appenders, shard)
			return fmt.Errorf("tsdb: cold tier: %w", err)
		}
	}
	return nil
}

// handle returns the open file behind segment name and its size,
// opening (and header-verifying) it on first use. Handles are shared
// and cached; preads on them run outside the tier mutex.
func (ct *coldTier) handle(name string) (file, int64, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if seg := ct.files[name]; seg != nil {
		return seg.f, seg.size, nil
	}
	shard, _, ok := parseColdName(name)
	if !ok {
		// Names reach here from snapshot records; rejecting anything
		// not shaped exactly like a segment name keeps a corrupt
		// snapshot from naming a path outside the tier directory.
		return nil, 0, fmt.Errorf("%w: bad segment name %q", errColdCorrupt, name)
	}
	f, err := ct.fs.OpenFile(filepath.Join(ct.dir, name), readOnly)
	if err != nil {
		return nil, 0, fmt.Errorf("tsdb: cold tier: %w", err)
	}
	var hdr [coldHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		closeErr := f.Close()
		return nil, 0, errors.Join(fmt.Errorf("%w: %s: short header", errColdCorrupt, name), closeErr)
	}
	d := decoder{b: hdr[:]}
	if d.fileHeader(coldMagic) != coldVersion || d.i64() != shard || d.end() != nil {
		closeErr := f.Close()
		return nil, 0, errors.Join(fmt.Errorf("%w: %s: bad header", errColdCorrupt, name), closeErr)
	}
	st, err := f.Stat()
	if err != nil {
		closeErr := f.Close()
		return nil, 0, errors.Join(fmt.Errorf("tsdb: cold tier: %w", err), closeErr)
	}
	ct.files[name] = &segment{name: name, f: f, size: st.Size()}
	return f, st.Size(), nil
}

// read preads and verifies the referenced payload. A reference outside
// its segment is refused before anything is allocated for it, and one
// the frame header on disk disagrees with (a shifted file) is corrupt.
func (r *coldRef) read() ([]byte, error) {
	f, size, err := r.ct.handle(r.file)
	if err != nil {
		return nil, err
	}
	if r.off < coldHeaderSize+frameHeader || r.off+int64(r.length) > size {
		return nil, fmt.Errorf("%w: %s@%d: reference past the segment's %d bytes", errColdCorrupt, r.file, r.off, size)
	}
	buf := make([]byte, frameHeader+int64(r.length))
	if _, err := f.ReadAt(buf, r.off-frameHeader); err != nil {
		return nil, fmt.Errorf("%w: %s@%d: %w", errColdCorrupt, r.file, r.off, err)
	}
	payload, crc, err := readFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s@%d: %v", errColdCorrupt, r.file, r.off, err)
	}
	if len(payload) != len(buf)-frameHeader || crc != r.crc {
		return nil, fmt.Errorf("%w: %s@%d: frame header mismatch", errColdCorrupt, r.file, r.off)
	}
	r.ct.reads.Add(1)
	r.ct.readBytes.Add(int64(r.length))
	return payload, nil
}

// coldFilesReferenced collects the segment file names any block in v
// points into.
func coldFilesReferenced(v *dbView, into map[string]struct{}) {
	for _, sh := range v.shards {
		for _, sr := range sh.series {
			for _, f := range sr.fields {
				for _, blk := range f.col.blocks {
					if blk.cold != nil {
						into[blk.cold.file] = struct{}{}
					}
				}
			}
		}
	}
}

// sweepOrphans deletes segment files no block in any keep view
// references. Callers pass both the just-snapshotted view and the live
// view: a file is garbage only when neither the newest durable
// snapshot nor current readers can name it, so a crash at any point
// re-recovers cleanly from what remains.
//
// Unlinked files' open handles are retired, not closed, until the
// following sweep: a scan still draining an older view keeps its pread
// target alive through POSIX unlink semantics for at least one more
// checkpoint interval.
func (ct *coldTier) sweepOrphans(keep ...*dbView) error {
	refs := make(map[string]struct{})
	for _, v := range keep {
		if v != nil {
			coldFilesReferenced(v, refs)
		}
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if err := ct.initLocked(); err != nil {
		return err
	}
	for _, seg := range ct.retired {
		if err := seg.f.Close(); err != nil {
			return fmt.Errorf("tsdb: cold tier: close %s: %w", seg.name, err)
		}
	}
	ct.retired = nil
	files, err := listDir(ct.fs, ct.dir, coldGen)
	if err != nil {
		return fmt.Errorf("tsdb: cold tier: %w", err)
	}
	for _, file := range files {
		if _, live := refs[file.name]; live {
			continue
		}
		ct.reclaimedBytes.Add(file.size)
		if seg := ct.files[file.name]; seg != nil {
			delete(ct.files, file.name)
			if shard, _, _ := parseColdName(file.name); ct.appenders[shard] == seg {
				delete(ct.appenders, shard)
			}
			ct.retired = append(ct.retired, seg)
		}
		if err := ct.fs.Remove(file.path); err != nil {
			return fmt.Errorf("tsdb: cold tier: %w", err)
		}
		ct.orphansDropped.Add(1)
	}
	return nil
}

// compact rewrites segment files that are mostly garbage (more dead
// than live bytes) by re-appending their live payloads to the shard's
// active generation, returning old-block → new-block twins for the
// caller to publish copy-on-write. The emptied files are not deleted
// here — sweepOrphans removes them once the covering snapshot is
// durable, so a crash mid-compaction only ever leaves extra garbage.
func (ct *coldTier) compact(v *dbView) (map[*block]*block, error) {
	type fileLive struct {
		shard  int64
		blocks []*block
		bytes  int64
	}
	live := make(map[string]*fileLive)
	for _, start := range v.shardStarts {
		sh := v.shards[start]
		for _, key := range slices.Sorted(maps.Keys(sh.series)) {
			sr := sh.series[key]
			for _, f := range sr.fields {
				for _, blk := range f.col.blocks {
					if blk.cold == nil {
						continue
					}
					fl := live[blk.cold.file]
					if fl == nil {
						fl = &fileLive{shard: start}
						live[blk.cold.file] = fl
					}
					fl.blocks = append(fl.blocks, blk)
					fl.bytes += frameHeader + int64(blk.cold.length)
				}
			}
		}
	}
	twins := make(map[*block]*block)
	for _, name := range slices.Sorted(maps.Keys(live)) {
		fl := live[name]
		_, size, err := ct.handle(name)
		if err != nil {
			return nil, err
		}
		payloadRegion := size - coldHeaderSize
		if payloadRegion-fl.bytes <= fl.bytes {
			continue // less than half garbage: not worth rewriting
		}
		ct.mu.Lock()
		isAppender := ct.appenders[fl.shard] != nil && ct.appenders[fl.shard].name == name
		if isAppender {
			// Detach so the rewrite lands in a fresh generation instead
			// of appending a file to itself.
			delete(ct.appenders, fl.shard)
		}
		ct.mu.Unlock()
		for _, blk := range fl.blocks {
			payload, err := blk.cold.read()
			if err != nil {
				return nil, err
			}
			ref, err := ct.appendPayload(fl.shard, payload, true)
			if err != nil {
				return nil, err
			}
			twin := &block{minT: blk.minT, maxT: blk.maxT, count: blk.count, rawBytes: blk.rawBytes, cold: ref}
			twins[blk] = twin
		}
		ct.compactions.Add(1)
	}
	if len(twins) == 0 {
		return nil, nil
	}
	if err := ct.syncAppenders(); err != nil {
		return nil, err
	}
	return twins, nil
}

// diskUsage reports segment file count and total bytes on disk.
func (ct *coldTier) diskUsage() (files int, bytes int64) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	found, err := listDir(ct.fs, ct.dir, coldGen)
	if err != nil {
		return 0, 0 // directory not created yet (no spill has run)
	}
	for _, file := range found {
		bytes += file.size
	}
	return len(found), bytes
}

// spillCandidate pairs a resident sealed block with its shard for the
// spill pass.
type spillCandidate struct {
	shardStart int64
	blk        *block
}

// collectSpillCandidates walks v for resident sealed blocks to spill:
// every block entirely older than olderThan, plus — when maxResident
// is set — the oldest remaining resident blocks until the resident
// compressed-byte budget holds. The budget covers sealed compressed
// bytes only; decoded payloads are bounded separately by the decode
// cache, and mutable tails by block size times live series.
func collectSpillCandidates(v *dbView, olderThan int64, maxResident int64) []spillCandidate {
	var cands []spillCandidate
	var rest []spillCandidate
	var restBytes int64
	for _, start := range v.shardStarts {
		sh := v.shards[start]
		for _, key := range slices.Sorted(maps.Keys(sh.series)) {
			sr := sh.series[key]
			for _, f := range sr.fields {
				for _, blk := range f.col.blocks {
					if blk.data == nil {
						continue
					}
					if blk.maxT < olderThan {
						cands = append(cands, spillCandidate{start, blk})
					} else {
						rest = append(rest, spillCandidate{start, blk})
						restBytes += int64(len(blk.data))
					}
				}
			}
		}
	}
	if maxResident > 0 && restBytes > maxResident {
		sort.SliceStable(rest, func(i, j int) bool {
			if rest[i].blk.maxT != rest[j].blk.maxT {
				return rest[i].blk.maxT < rest[j].blk.maxT
			}
			return rest[i].blk.minT < rest[j].blk.minT
		})
		for _, c := range rest {
			if restBytes <= maxResident {
				break
			}
			cands = append(cands, c)
			restBytes -= int64(len(c.blk.data))
		}
	}
	return cands
}

// SpillCold moves sealed blocks to the cold tier: every resident
// sealed block whose data is entirely older than olderThan (unix
// seconds), plus — when Options.ColdMaxResidentBytes is set — the
// oldest resident blocks beyond the cutoff until resident compressed
// sealed bytes fit the budget. Payloads are appended to per-shard
// segment files and fsynced before the view referencing them
// publishes, so a crash mid-spill recovers to the fully-resident
// state (the orphaned frames are swept later). Returns the number of
// blocks spilled.
//
// The derivation runs under commit's write lock, file appends included:
// spills run once per collection cycle and the WAL already fsyncs under
// the same lock, so trading a brief writer stall for a race-free
// candidate set is the same bargain the rest of the engine makes. A
// spill moves bytes, not data, so it logs no WAL record.
func (db *DB) SpillCold(olderThan int64) (int, error) {
	if db.cold == nil {
		return 0, nil
	}
	spilled := 0
	err := db.commit(func(v *dbView) (*dbView, *walRecord, error) {
		cands := collectSpillCandidates(v, olderThan, db.cold.maxResident)
		if len(cands) == 0 {
			return nil, nil, nil
		}
		twins := make(map[*block]*block, len(cands))
		for _, c := range cands {
			ref, err := db.cold.appendPayload(c.shardStart, c.blk.data, false)
			if err != nil {
				return nil, nil, err // nothing published; partial appends are swept as garbage
			}
			twins[c.blk] = &block{minT: c.blk.minT, maxT: c.blk.maxT, count: c.blk.count, rawBytes: c.blk.rawBytes, cold: ref}
		}
		if err := db.cold.syncAppenders(); err != nil {
			return nil, nil, err
		}
		spilled = len(twins)
		return spillBlocksView(v, twins), nil, nil
	})
	if err != nil {
		return 0, err
	}
	return spilled, nil
}

// compactCold rewrites mostly-garbage segment files and publishes the
// relocated references. Checkpoint calls it before cutting the WAL so
// the snapshot that follows records the compacted layout.
func (db *DB) compactCold() error {
	if db.cold == nil {
		return nil
	}
	return db.commit(func(v *dbView) (*dbView, *walRecord, error) {
		twins, err := db.cold.compact(v)
		if err != nil || len(twins) == 0 {
			return nil, nil, err
		}
		return spillBlocksView(v, twins), nil, nil
	})
}

// ColdStats is a point-in-time snapshot of the cold tier
// (DB.ColdStats): where sealed bytes live and how the tier is moving
// them.
type ColdStats struct {
	Enabled        bool  `json:"enabled"`
	BlocksCold     int64 `json:"blocks_cold"`     // sealed blocks whose payload lives on disk
	ColdBytes      int64 `json:"cold_bytes"`      // compressed bytes referenced on disk
	ResidentBlocks int64 `json:"resident_blocks"` // sealed blocks still holding payload in memory
	ResidentBytes  int64 `json:"resident_bytes"`  // compressed bytes of those blocks
	BudgetBytes    int64 `json:"budget_bytes"`    // resident budget; <=0 = age-based spill only
	Files          int   `json:"files"`           // segment files on disk (orphans included)
	FileBytes      int64 `json:"file_bytes"`      // segment bytes on disk (garbage included)
	Spills         int64 `json:"spills"`
	SpilledBytes   int64 `json:"spilled_bytes"`
	Reads          int64 `json:"reads"`
	ReadBytes      int64 `json:"read_bytes"`
	Compactions    int64 `json:"compactions"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
}

// ColdStats reports the cold tier's block placement and counters. All
// zero when no cold directory is configured.
func (db *DB) ColdStats() ColdStats {
	ct := db.cold
	if ct == nil {
		return ColdStats{}
	}
	cs := ColdStats{
		Enabled:        true,
		BudgetBytes:    ct.maxResident,
		Spills:         ct.spills.Load(),
		SpilledBytes:   ct.spilledBytes.Load(),
		Reads:          ct.reads.Load(),
		ReadBytes:      ct.readBytes.Load(),
		Compactions:    ct.compactions.Load(),
		ReclaimedBytes: ct.reclaimedBytes.Load(),
	}
	v := db.view.Load()
	for _, sh := range v.shards {
		for _, sr := range sh.series {
			for _, f := range sr.fields {
				for _, blk := range f.col.blocks {
					switch {
					case blk.cold != nil:
						cs.BlocksCold++
						cs.ColdBytes += int64(blk.cold.length)
					case blk.data != nil:
						cs.ResidentBlocks++
						cs.ResidentBytes += int64(len(blk.data))
					}
				}
			}
		}
	}
	cs.Files, cs.FileBytes = ct.diskUsage()
	return cs
}
