package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"monster/internal/tsdb"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the length of the measured window. The loop is bounded
	// by time so a run costs the same on a slow host; per-operation
	// counts (wire bytes, blocks decoded per query) still repeat
	// exactly.
	Seconds float64
	// Ops, when positive, replaces the time bound: exactly this many
	// operations are measured, so every count of the run repeats for a
	// seed. Tests use it.
	Ops int
	// Trace selects the traced run: part of the window's operations
	// record spans around each layer call; the others are the untraced
	// reference for trace.overhead_pct.
	Trace bool
	// Dir is the scratch directory for WAL, cold segments and span
	// files. Each run works in a fresh subdirectory and removes it.
	Dir string
	// Log receives progress lines; nil discards them.
	Log io.Writer

	scale   *scale
	corrupt func(step int, batch []tsdb.Point)
}

// scale sizes the two datasets. The full scale is what BENCHMARK.json
// runs; tests shrink it.
type scale struct {
	fleetNodes    int
	fleetHistory  time.Duration
	quanahNodes   int
	quanahHistory time.Duration
}

var fullScale = scale{fleetNodes: 64, fleetHistory: 72 * time.Hour, quanahNodes: 467, quanahHistory: 6 * time.Hour}

var midnight = time.Date(2020, 4, 20, 0, 0, 0, 0, time.UTC)

// fleet is the read-side dataset: days of history, so every series has
// sealed blocks (a column seals at 1024 points inside a day shard,
// which is why the history is aligned to midnight), all of them
// spilled cold, plus a raw tail per day.
func (s scale) fleet(seed int64) Dataset {
	return Dataset{Nodes: s.fleetNodes, Start: midnight, History: s.fleetHistory, Seed: seed}
}

// quanah is the write-side dataset: the paper's cluster size with a
// morning of raw, unsealed history behind it.
func (s scale) quanah(seed int64) Dataset {
	return Dataset{Nodes: s.quanahNodes, Start: midnight.Add(s.quanahHistory), History: s.quanahHistory, Seed: seed}
}

// spec is one workload: its dataset, the request its warm-up repeats
// (nil on the write-only workload) and its measured window.
type spec struct {
	WorkloadDef
	dataset func(scale, int64) Dataset
	warm    session
	measure func(*run) error
}

var specs = []spec{
	{
		WorkloadDef{"collect", "467-node collection cycles through collector, async ingest, WAL and checkpoints: the write path does all the work and the builder none"},
		scale.quanah, nil, (*run).measureCollect,
	},
	{
		WorkloadDef{"dash-6h", "the dashboard refresh (6 h at 5 m, all nodes): reads raw tails only, so JSON encoding and zlib dominate and a scan-path change must not show"},
		scale.fleet, dashSession, func(r *run) error { return r.measureReads(dashSession) },
	},
	{
		WorkloadDef{"scan-72h", "the same response shape over 72 h at 1 h: every sealed block is decoded, through a decode cache smaller than the working set and cold-segment reads, so tsdb dominates"},
		scale.fleet, scanSession, func(r *run) error { return r.measureReads(scanSession) },
	},
	{
		WorkloadDef{"mixed-live", "dashboard sessions (drill, dash, tier, rack scan; Zipf racks) beside an open-loop cycle driver: readers and the writer share views, cache and cores"},
		scale.fleet, dashSession, (*run).measureMixed,
	},
}

// Workloads lists the workloads in BENCHMARK.json order.
func Workloads() []WorkloadDef {
	out := make([]WorkloadDef, len(specs))
	for i, s := range specs {
		out[i] = s.WorkloadDef
	}
	return out
}

// RunResult is what one run measured.
type RunResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // operation latencies behind op_ms_*
	Metrics   map[string]float64 `json:"metrics"`
	Shares    []LayerShare       `json:"shares,omitempty"` // traced run: layer shares of the median operation
	Errors    []string           `json:"errors,omitempty"`
}

// Correct reports whether every operation succeeded and every checked
// answer matched the oracle.
func (r *RunResult) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// run is the state of one run in progress.
type run struct {
	opts   Options
	dp     *Deployment
	oracle *Oracle
	client *client
	rec    *Recorder // traced run only
	res    *RunResult

	warmDashMs float64 // dash p50 alone, before any concurrent ingest
	fetches    int     // Builder.Fetch calls of the window, over HTTP or direct
	deck       []int   // mixed-live: the rack schedule
}

func (r *run) logf(format string, args ...any) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, format+"\n", args...)
	}
}

func (r *run) set(name string, v float64) { r.res.Metrics[name] = v }

// attempt counts one operation; a non-nil err makes it a failed one. A
// failed operation has no latency: it is left out of every percentile
// and out of ops_per_s, so failures can only make the numbers worse. A
// broken invariant (accounting, durability) is reported the same way,
// as one more attempted and failed operation.
func (r *run) attempt(err error) bool {
	r.res.Attempted++
	if err == nil {
		return true
	}
	r.res.Failed++
	if len(r.res.Errors) < 5 {
		r.res.Errors = append(r.res.Errors, err.Error())
	}
	return false
}

// budget is the stop condition of one measured loop.
type budget struct {
	start    time.Time
	deadline time.Time
	ops      int // >0: stop after this many operations instead
}

func (b budget) done(ops int) bool {
	if b.ops > 0 {
		return ops >= b.ops
	}
	return !clk.Now().Before(b.deadline)
}

// pastHalf reports whether the loop has used half its budget.
func (b budget) pastHalf(ops int) bool {
	if b.ops > 0 {
		return 2*ops >= b.ops
	}
	return clk.Now().Sub(b.start) >= b.deadline.Sub(b.start)/2
}

// window is the budget of the run's measured loop.
func (r *run) window() budget {
	now := clk.Now()
	return budget{start: now, deadline: now.Add(time.Duration(r.opts.Seconds * float64(time.Second))), ops: r.opts.Ops}
}

// setOps derives the three operation metrics from the latencies of the
// successful operations and the wall time they were measured over.
func (r *run) setOps(latMs []float64, wall time.Duration) {
	if len(latMs) == 0 {
		return
	}
	s := sorted(latMs)
	r.res.Samples = len(s)
	r.set("op_ms_p50", Percentile(s, 50))
	r.set("op_ms_p90", Percentile(s, 90))
	r.set("ops_per_s", float64(len(s))/wall.Seconds())
	if !Supported(len(s), 90) && !r.opts.Trace {
		r.logf("warning: %d samples do not carry a p90 (need %d beyond it)", len(s), minBeyond)
	}
}

// Run executes one workload once: set-up, measured window, end-of-run
// checks. A run whose operations fail still returns a result (with
// Failed > 0); the error return is for a harness that could not run.
func Run(opts Options) (*RunResult, error) {
	var sp *spec
	for i := range specs {
		if specs[i].Name == opts.Workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return nil, fmt.Errorf("bench: unknown workload %q", opts.Workload)
	}
	if opts.Seconds <= 0 && opts.Ops <= 0 {
		return nil, fmt.Errorf("bench: need a positive Seconds or Ops")
	}
	sc := fullScale
	if opts.scale != nil {
		sc = *opts.scale
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(opts.Dir, "run-")
	if err != nil {
		return nil, fmt.Errorf("bench: scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	// Hand the previous run's memory back, so that the second run of a
	// -repeat faults its pages in and paces its GC like the first, and
	// like the fresh process the acceptance driver starts.
	debug.FreeOSMemory()

	r := &run{opts: opts, res: &RunResult{
		Workload: opts.Workload, Seed: opts.Seed, Trace: opts.Trace, Metrics: make(map[string]float64),
	}}
	if opts.Trace {
		r.rec = NewRecorder()
	}

	// Set-up: deployment, dataset through the write path, checkpoint,
	// warm-up. All of it is setup_s, so work a change moves out of the
	// measured window and into start-up still shows.
	t0 := clk.Now()
	data := sp.dataset(sc, opts.Seed)
	r.dp, err = Deploy(dir, data)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r.dp != nil { // finish takes it over on the way out
			r.dp.Close()
		}
	}()
	if err := r.dp.Load(opts.corrupt); err != nil {
		return nil, err
	}
	r.oracle = NewOracle(data, r.dp.NodeIDs)
	r.client = newClient(r.dp.URL)
	if err := r.warmUp(sp); err != nil {
		return nil, err
	}
	r.set("setup_s", since(t0).Seconds())
	r.logf("%s seed %d: set up %d points in %.2f s", sp.Name, opts.Seed, data.Points(), r.res.Metrics["setup_s"])

	before := r.snapshotCounters()
	if err := sp.measure(r); err != nil {
		return nil, err
	}
	r.counterMetrics(before)
	if err := r.finish(); err != nil {
		return nil, err
	}
	if r.rec != nil {
		r.set("trace.spans", float64(len(r.rec.Spans)))
		path := filepath.Join(opts.Dir, "spans-"+sp.Name+".json")
		if err := r.rec.WriteFile(path); err != nil {
			return nil, fmt.Errorf("bench: write spans: %w", err)
		}
	}
	return r.res, nil
}

// warmUp runs the uncounted operations that let lazy set-up finish:
// five collection cycles everywhere (the first one materialises the
// rollup tiers over the whole history), then ten requests on the read
// workloads.
func (r *run) warmUp(sp *spec) error {
	for i := 0; i < 5; i++ {
		if err := r.dp.Sys.AdvanceCollecting(context.Background(), Cadence*time.Second); err != nil {
			return fmt.Errorf("bench: warm-up cycle: %w", err)
		}
	}
	if sp.warm == nil {
		return nil
	}
	var ms []float64
	for i := 0; i < 10; i++ {
		for _, q := range sp.warm(r, i, r.dp.Data.Start.Unix()) {
			s := r.request(q, false)
			if s.err != nil {
				return fmt.Errorf("bench: warm-up request: %w", s.err)
			}
			ms = append(ms, s.ms)
		}
	}
	r.warmDashMs = Median(ms)
	return nil
}

// counters is a snapshot of every cumulative counter a per-layer
// metric is a delta of.
type counters struct {
	mem   runtime.MemStats
	db    tsdb.DBStats
	wal   tsdb.WALStats
	cold  tsdb.ColdStats
	cache tsdb.CacheStats
}

func (r *run) snapshotCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	db := r.dp.Sys.DB
	c.db, c.wal, c.cold, c.cache = db.Stats(), db.WALStats(), db.ColdStats(), db.CacheStats()
	return c
}

// counterMetrics turns counter deltas over the measured window into
// per-layer metrics, and totals since open into the storage gauges.
func (r *run) counterMetrics(before counters) {
	after := r.snapshotCounters()
	ops := float64(r.res.Attempted - r.res.Failed)
	if ops < 1 {
		ops = 1
	}
	r.set("runtime.alloc_kb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/ops)
	r.set("runtime.gc_pause_ms_total", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	r.set("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	r.set("tsdb.write_wait_ms", float64(after.db.WriteWaitNs-before.db.WriteWaitNs)/1e6)
	r.set("tsdb.wal_syncs", float64(after.wal.Syncs-before.wal.Syncs))
	if look := (after.cache.Hits - before.cache.Hits) + (after.cache.Misses - before.cache.Misses); look > 0 {
		r.set("tsdb.cache_hit_ratio", float64(after.cache.Hits-before.cache.Hits)/float64(look))
	}
	r.set("tsdb.cache_evictions", float64(after.cache.Evictions-before.cache.Evictions))
	r.set("tsdb.blocks_sealed", float64(after.db.BlocksSealed))
	r.set("tsdb.blocks_spilled", float64(after.cold.Spills))
	r.set("tsdb.cold_bytes", float64(after.cold.ColdBytes))
	r.set("tsdb.compression_ratio", r.dp.Sys.DB.Compression().Ratio())
	if r.fetches > 0 {
		r.set("tsdb.cold_read_kb_per_query", float64(after.cold.ReadBytes-before.cold.ReadBytes)/1024/float64(r.fetches))
	}
}

// probeStatement is the fixed query whose answer must survive the
// restart unchanged: the last two hours of one measurement, live
// cycles included.
func (r *run) probeStatement(now time.Time) string {
	return fmt.Sprintf(`SELECT max("Reading") FROM "Thermal" WHERE time >= %d AND time < %d GROUP BY time(300s), "NodeId", "Label"`,
		now.Add(-2*time.Hour).Unix(), now.Unix()+1)
}

func probeAnswer(db *tsdb.DB, stmt string) ([]tsdb.ResultSeries, error) {
	res, err := db.Query(stmt)
	if err != nil {
		return nil, err
	}
	return res.Series, nil
}

// recoveries is how many times a traced run reopens the closed
// directory; tsdb.recovery_s is the median, so one slow page-cache miss
// does not set it. An untraced run reports no recovery time and reopens
// once, for the durability check.
const recoveries = 5

// finish takes the end-of-run measurements every workload shares:
// heap after a forced collection, then a restart — close the WAL
// without a final checkpoint, measure the directory, reopen it, and
// require the same point count and the same probe answer.
func (r *run) finish() error {
	sys := r.dp.Sys
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_mb", float64(ms.HeapInuse)/(1<<20))
	points := sys.DB.Stats().PointsWritten
	r.set("tsdb.heap_bytes_per_point", float64(ms.HeapInuse)/float64(points))

	stmt := r.probeStatement(sys.Now())
	want, err := probeAnswer(sys.DB, stmt)
	if err != nil {
		return fmt.Errorf("bench: probe query: %w", err)
	}
	walDir, coldDir := r.dp.WALDir, r.dp.ColdDir
	r.dp.Close()
	r.dp, r.oracle = nil, nil // let the first instance go before the second loads
	if err := sys.DB.CloseWAL(); err != nil {
		return fmt.Errorf("bench: close WAL: %w", err)
	}

	disk, err := dirBytes(walDir, coldDir)
	if err != nil {
		return fmt.Errorf("bench: measure storage directory: %w", err)
	}
	r.set("disk_bytes_per_point", float64(disk)/float64(points))

	reopens := 1
	if r.opts.Trace {
		reopens = recoveries
	}
	var secs []float64
	for i := 0; i < reopens; i++ {
		runtime.GC()
		t0 := clk.Now()
		db, info, err := tsdb.OpenDurable(tsdb.Options{ColdDir: coldDir}, tsdb.WALOptions{Dir: walDir})
		if err != nil {
			return fmt.Errorf("bench: reopen: %w", err)
		}
		secs = append(secs, since(t0).Seconds())
		if i == 0 {
			r.set("tsdb.recovery_replayed_points", float64(info.Points))
			if got := db.Stats().PointsWritten; got != points {
				r.attempt(fmt.Errorf("durability: %d points written before the restart, %d after", points, got))
			}
			got, err := probeAnswer(db, stmt)
			if err != nil {
				r.attempt(fmt.Errorf("durability: probe query after restart: %w", err))
			} else if !reflect.DeepEqual(got, want) {
				r.attempt(fmt.Errorf("durability: probe query answer changed across the restart"))
			}
		}
		if err := db.CloseWAL(); err != nil {
			return fmt.Errorf("bench: close reopened WAL: %w", err)
		}
	}
	r.set("tsdb.recovery_s", Median(secs))
	return nil
}

// dirBytes sums the sizes of the regular files under the directories.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return fs.SkipDir
				}
				return err
			}
			if d.Type().IsRegular() {
				info, err := d.Info()
				if err != nil {
					return err
				}
				total += info.Size()
			}
			return nil
		})
		if err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	return total, nil
}

// ContractLine renders the run as the one-line JSON object the
// acceptance driver reads: every end-to-end metric of an untraced run,
// every per-layer metric of a traced one.
func (r *RunResult) ContractLine() ([]byte, error) {
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && !r.Trace {
			return nil, fmt.Errorf("bench: %s did not produce %s", r.Workload, d.Name)
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, metrics})
}
