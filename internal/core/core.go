// Package core wires the complete MonSTer deployment together: the
// simulated cluster substrate (node physics, BMC fleet, UGE-style
// resource manager fed by a synthetic workload) and the monitoring
// pipeline on top of it (Metrics Collector → time-series database →
// Metrics Builder). It is the entry point the examples, the CLI tools,
// and the experiment harness all share.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"monster/internal/alerting"
	"monster/internal/builder"
	"monster/internal/clock"
	"monster/internal/collector"
	"monster/internal/ingest"
	"monster/internal/redfish"
	"monster/internal/scheduler"
	"monster/internal/simnode"
	"monster/internal/tsdb"
)

// QuanahNodes is the size of the paper's deployment target.
const QuanahNodes = 467

// CollectInterval is the collector cadence: the paper's "reasonable
// interval of 60 seconds" (Section III-B4).
const CollectInterval = 60 * time.Second

// workloadHorizon is how much submission trace NewSystem pre-generates.
const workloadHorizon = 48 * time.Hour

// Config assembles a System.
type Config struct {
	// Nodes is the cluster size. Zero means 64 (a laptop-friendly
	// default; use QuanahNodes for paper-scale runs).
	Nodes int
	// Seed drives every stochastic component deterministically.
	Seed int64
	// Start is the simulation epoch. Zero means 2020-04-20T12:00:00Z
	// (the example window in Section III-D).
	Start time.Time
	// Workload is the synthetic user mix. Nil means
	// scheduler.DefaultUserMix. Empty (non-nil, length 0) disables
	// submissions.
	Workload []scheduler.UserProfile
	// Trace, when non-nil, replays this exact submission trace instead
	// of generating one from Workload (see scheduler.LoadTrace and
	// scheduler.LoadSWF).
	Trace *scheduler.Workload
	// Schema selects the storage layout.
	Schema collector.SchemaVersion
	// BMCLatency is the per-request BMC service time (0 = instant; the
	// paper's iDRACs averaged 4.29 s).
	BMCLatency time.Duration
	// ConcurrentQueries enables the builder's batched plan on its fixed
	// pool of 8 workers (Fig 15); false is the serial per-(node, metric)
	// baseline.
	ConcurrentQueries bool
	// ShardDuration overrides the TSDB shard width (seconds).
	ShardDuration int64
	// BlockSize overrides the storage engine's seal threshold: columns
	// whose raw tail reaches this many points are compressed into
	// immutable Gorilla-encoded blocks. 0 = engine default (1024);
	// values above 1<<24, the largest block a reader accepts, are
	// clamped to 1<<24.
	BlockSize int
	// WALDir enables crash-safe storage: every mutation is write-ahead
	// logged under this directory, and startup recovers the last
	// checkpoint snapshot plus the log's longest valid prefix. Empty
	// keeps the engine memory-only (the pre-durability behaviour).
	WALDir string
	// FsyncPolicy selects WAL sync behaviour when WALDir is set:
	// tsdb.FsyncInterval (default), FsyncAlways, or FsyncNever.
	FsyncPolicy tsdb.FsyncPolicy
	// FsyncInterval is the sync cadence under FsyncInterval policy
	// (0 = tsdb.DefaultSyncInterval).
	FsyncInterval time.Duration
	// SnapshotInterval is the cadence of the background checkpoint
	// (snapshot + WAL truncation) loop run by RunCheckpoints. Zero
	// selects 5 minutes when WALDir is set.
	SnapshotInterval time.Duration
	// Retention drops storage shards older than this (0 keeps
	// everything). Enforced once per collection interval.
	Retention time.Duration
	// Rollups are continuous downsampling queries, registered on the
	// storage engine and kept current by its write path: every batch
	// that lands materializes the buckets it closes.
	Rollups []tsdb.RollupSpec
	// RawRetention expires raw samples older than this from rollup
	// source measurements, once every covering rollup has materialized
	// them — the age-based tiering knob (coarse tiers are kept by
	// Retention, raw detail only this long). 0 keeps raw forever.
	// Requires Rollups; enforced once per collection interval.
	RawRetention time.Duration
	// DecodeCacheBytes bounds the storage engine's sealed-block decode
	// cache (0 = engine default 64 MiB).
	DecodeCacheBytes int64
	// ColdDir enables the file-backed cold tier: sealed blocks past
	// ColdAfter (or past the resident budget) spill their compressed
	// payloads to per-shard segment files under this directory and are
	// read back transparently on scan. Empty keeps every sealed block
	// resident (the pre-cold-tier behaviour).
	ColdDir string
	// ColdAfter is the age past which sealed blocks spill to ColdDir,
	// measured against simulation time and enforced once per collection
	// interval. Zero selects 1 h when ColdDir is set.
	ColdAfter time.Duration
	// ColdMaxResidentBytes bounds resident compressed sealed-block
	// bytes: after the age pass, the oldest remaining blocks spill
	// until the residue fits. 0 = no budget (age-only spilling).
	ColdMaxResidentBytes int64
	// StoreAllHealth disables the transition-only health filter
	// (Section III-B3) — the ablation baseline.
	StoreAllHealth bool
	// Telemetry equips the BMC firmware with the Redfish Telemetry
	// Service and makes the collector sweep with one MetricReport per
	// node instead of four category GETs (the paper's future work).
	Telemetry bool
	// CollectNetwork extends collection with NIC statistics (a fifth
	// Redfish category) and filesystem throughput — Section VI's
	// missing metrics.
	CollectNetwork bool
	// AlertRules enables the Nagios-role alerting engine, evaluated
	// after every collection cycle. Nil disables alerting; use
	// alerting.DefaultRules() for the Table I thresholds.
	AlertRules []alerting.Rule
	// IngestRules are the pipeline router's declarative transformation
	// rules, applied in order to every collected, pushed, or scraped
	// point (e.g. "add_tag:cluster=quanah",
	// "derive:PowerKW.Reading=Power.Reading*0.001"). Empty passes
	// points through untouched — the default single-path behaviour.
	IngestRules []string
	// ForwardTo adds a forward sink relaying every routed point to a
	// peer monsterd's push endpoint (line protocol over HTTP POST),
	// e.g. "http://peer:8080/v1/ingest/write".
	ForwardTo string
	// ForwardOnly removes the local storage sink, turning this instance
	// into a pure relay. Requires ForwardTo.
	ForwardOnly bool
	// DebugSink, when non-nil, adds a sink rendering every routed point
	// as line protocol to this writer (os.Stdout, a file).
	DebugSink io.Writer
	// ScrapeTargets adds a Prometheus-style scrape receiver polling
	// these text-exposition endpoints on ScrapeInterval.
	ScrapeTargets []string
	// ScrapeInterval is the scrape cadence (0 = 60 s).
	ScrapeInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2020, 4, 20, 12, 0, 0, 0, time.UTC)
	}
	if c.Workload == nil {
		c.Workload = scheduler.DefaultUserMix()
	}
	if c.WALDir != "" && c.SnapshotInterval == 0 {
		c.SnapshotInterval = 5 * time.Minute
	}
	if c.ColdDir != "" && c.ColdAfter == 0 {
		c.ColdAfter = time.Hour
	}
}

// System is a fully wired MonSTer deployment over a simulated cluster.
type System struct {
	Config     Config
	Nodes      *simnode.Fleet
	BMCs       *redfish.Fleet
	QMaster    *scheduler.QMaster
	SchedAPI   *scheduler.API
	DB         *tsdb.DB
	Collector  *collector.Collector
	Builder    *builder.Builder
	BuilderAPI *builder.API
	Alerts     *alerting.Engine // non-nil when Config.AlertRules is set
	Workload   *scheduler.Workload
	// Ingest is the pluggable pipeline every point now flows through:
	// receivers (poll, push, optionally scrape) → router → sinks. With
	// the default config it contains exactly the poll receiver and the
	// local tsdb sink — the classic single path.
	Ingest *ingest.Pipeline
	Poll   *ingest.PollReceiver
	Push   *ingest.PushReceiver   // mount at the push endpoint to accept line protocol
	Scrape *ingest.ScrapeReceiver // non-nil when Config.ScrapeTargets
	Local  *ingest.TSDBSink       // non-nil unless Config.ForwardOnly
	Fwd    *ingest.ForwardSink    // non-nil when Config.ForwardTo
	// Recovery reports what startup reconstructed from the WAL
	// directory (zero value when Config.WALDir is empty).
	Recovery tsdb.RecoveryInfo

	now         time.Time
	nextCollect time.Time
}

// New builds a System; it panics on a bad configuration or a failed
// WAL recovery. NewSystem is the error-returning form daemons use.
func New(cfg Config) *System {
	sys, err := NewSystem(cfg)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return sys
}

// NewSystem builds a System, reporting configuration and storage
// recovery failures instead of panicking.
func NewSystem(cfg Config) (*System, error) {
	cfg.applyDefaults()
	nodes := simnode.NewFleet(cfg.Nodes, cfg.Seed)
	bmcs := redfish.NewFleet(nodes, redfish.BMCOptions{
		Latency:       cfg.BMCLatency,
		MaxConcurrent: 8,
		Seed:          cfg.Seed,
		Telemetry:     cfg.Telemetry,
	})
	qm := scheduler.NewQMaster(nodes.Nodes(), cfg.Start, scheduler.Options{})
	api := scheduler.NewAPI(qm)
	storageOpts := tsdb.Options{
		ShardDuration:        cfg.ShardDuration,
		BlockSize:            cfg.BlockSize,
		DecodeCacheBytes:     cfg.DecodeCacheBytes,
		ColdDir:              cfg.ColdDir,
		ColdMaxResidentBytes: cfg.ColdMaxResidentBytes,
	}
	var (
		db       *tsdb.DB
		recovery tsdb.RecoveryInfo
	)
	if cfg.WALDir != "" {
		var err error
		db, recovery, err = tsdb.OpenDurable(storageOpts, tsdb.WALOptions{
			Dir:          cfg.WALDir,
			Policy:       cfg.FsyncPolicy,
			SyncInterval: cfg.FsyncInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("storage recovery: %w", err)
		}
	} else {
		db = tsdb.Open(storageOpts)
	}

	rf := redfish.NewClient(redfish.ClientOptions{
		HTTPClient:     bmcs.Client(),
		RequestTimeout: 30 * time.Second,
		Retries:        2,
		RetryBackoff:   10 * time.Millisecond,
	})
	addrs := make([]string, nodes.Len())
	for i := range addrs {
		addrs[i] = nodes.Node(i).Addr()
	}
	colOpts := collector.Options{Schema: cfg.Schema}
	if cfg.StoreAllHealth {
		off := false
		colOpts.FilterHealth = &off
	}
	colOpts.UseTelemetry = cfg.Telemetry
	colOpts.CollectNetwork = cfg.CollectNetwork
	col := collector.New(addrs, rf, &collector.DirectSchedulerSource{API: api}, colOpts)
	b := builder.New(db, builder.Options{Concurrent: cfg.ConcurrentQueries})
	for _, spec := range cfg.Rollups {
		if err := db.RegisterRollup(spec); err != nil {
			return nil, fmt.Errorf("bad rollup spec: %w", err)
		}
	}
	var alerts *alerting.Engine
	if len(cfg.AlertRules) > 0 {
		var err error
		if alerts, err = alerting.New(db, cfg.AlertRules); err != nil {
			return nil, fmt.Errorf("bad alert rules: %w", err)
		}
	}

	workload := cfg.Trace
	if workload == nil {
		workload = scheduler.GenerateWorkload(cfg.Workload, cfg.Start, workloadHorizon, cfg.Seed)
	}

	// Ingest pipeline: the collector's output is re-homed behind the
	// poll receiver, a push receiver accepts line protocol over HTTP,
	// and the routed stream fans out to the configured sinks. The
	// default config reduces to poll → (no rules) → local tsdb — the
	// exact pre-pipeline path.
	if cfg.ForwardOnly && cfg.ForwardTo == "" {
		return nil, fmt.Errorf("ForwardOnly requires ForwardTo")
	}
	rules, err := ingest.ParseRules(cfg.IngestRules)
	if err != nil {
		return nil, fmt.Errorf("bad ingest rule: %w", err)
	}
	pipe, err := ingest.New(ingest.Options{Rules: rules})
	if err != nil {
		return nil, err
	}
	poll := ingest.NewPollReceiver(col)
	pipe.AddReceiver(poll)
	push := ingest.NewPushReceiver()
	pipe.AddReceiver(push)
	var scrape *ingest.ScrapeReceiver
	if len(cfg.ScrapeTargets) > 0 {
		scrape = ingest.NewScrapeReceiver(ingest.ScrapeOptions{
			Targets:  cfg.ScrapeTargets,
			Interval: cfg.ScrapeInterval,
		})
		pipe.AddReceiver(scrape)
	}
	var local *ingest.TSDBSink
	if !cfg.ForwardOnly {
		local = ingest.NewTSDBSink(db)
		pipe.AddSink(local)
	}
	var fwd *ingest.ForwardSink
	if cfg.ForwardTo != "" {
		fwd = ingest.NewForwardSink(cfg.ForwardTo)
		pipe.AddSink(fwd)
	}
	if cfg.DebugSink != nil {
		pipe.AddSink(ingest.NewDebugSink(cfg.DebugSink))
	}
	bapi := builder.NewAPI(b)
	bapi.SetIngestStats(func() any { return pipe.Stats() })

	return &System{
		Config:      cfg,
		Nodes:       nodes,
		BMCs:        bmcs,
		QMaster:     qm,
		SchedAPI:    api,
		DB:          db,
		Collector:   col,
		Builder:     b,
		BuilderAPI:  bapi,
		Alerts:      alerts,
		Workload:    workload,
		Ingest:      pipe,
		Poll:        poll,
		Push:        push,
		Scrape:      scrape,
		Local:       local,
		Fwd:         fwd,
		Recovery:    recovery,
		now:         cfg.Start,
		nextCollect: cfg.Start.Add(CollectInterval),
	}, nil
}

// Now reports the simulation time.
func (s *System) Now() time.Time { return s.now }

// Advance steps the cluster substrate (workload arrivals, scheduler,
// node physics) by d at the given resolution, without collecting.
func (s *System) Advance(d time.Duration) {
	const step = 15 * time.Second
	s.advance(d, step, false, context.Background())
}

// AdvanceCollecting steps the cluster and runs a collection cycle at
// every collector interval boundary crossed.
func (s *System) AdvanceCollecting(ctx context.Context, d time.Duration) error {
	const step = 15 * time.Second
	return s.advance(d, step, true, ctx)
}

func (s *System) advance(d, step time.Duration, collect bool, ctx context.Context) error {
	end := s.now.Add(d)
	for s.now.Before(end) {
		next := s.now.Add(step)
		if next.After(end) {
			next = end
		}
		s.Workload.FeedDue(s.QMaster, next)
		s.Nodes.Step(next.Sub(s.now))
		s.QMaster.Tick(next)
		s.now = next
		if collect && !s.now.Before(s.nextCollect) {
			if _, err := s.Collector.CollectOnce(ctx, s.now); err != nil {
				return fmt.Errorf("core: collection at %v: %w", s.now, err)
			}
			s.nextCollect = s.nextCollect.Add(CollectInterval)
			if s.Config.Retention > 0 {
				if _, err := s.DB.DeleteBefore(s.now.Add(-s.Config.Retention).Unix()); err != nil {
					return fmt.Errorf("core: retention at %v: %w", s.now, err)
				}
			}
			if s.Config.RawRetention > 0 {
				if _, err := s.DB.ExpireRaw(s.now.Add(-s.Config.RawRetention).Unix()); err != nil {
					return fmt.Errorf("core: raw-tier expiry at %v: %w", s.now, err)
				}
			}
			if s.Config.ColdDir != "" {
				// After retention and raw expiry have dropped what they
				// will, spill what remains past the age threshold (and
				// past the resident budget) to the cold tier.
				if _, err := s.DB.SpillCold(s.now.Add(-s.Config.ColdAfter).Unix()); err != nil {
					return fmt.Errorf("core: cold spill at %v: %w", s.now, err)
				}
			}
			if s.Alerts != nil {
				if _, err := s.Alerts.Evaluate(s.now, 3*CollectInterval); err != nil {
					return fmt.Errorf("core: alert evaluation at %v: %w", s.now, err)
				}
			}
		}
	}
	return nil
}

// Durable reports whether the storage layer is backed by a WAL.
func (s *System) Durable() bool { return s.Config.WALDir != "" }

// Checkpoint snapshots the database into the WAL directory and
// truncates the log. It is an error on a non-durable system.
func (s *System) Checkpoint() error { return s.DB.Checkpoint() }

// RunCheckpoints checkpoints on Config.SnapshotInterval until ctx is
// done — the background snapshot+truncate loop monsterd runs so the
// WAL stays short and restarts replay little. It returns ctx's error
// on cancellation, or the first checkpoint failure.
func (s *System) RunCheckpoints(ctx context.Context, clk clock.Clock) error {
	if !s.Durable() {
		return fmt.Errorf("core: checkpoints need Config.WALDir")
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(s.Config.SnapshotInterval):
		}
		if err := s.Checkpoint(); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
}

// RunIngest runs the receivers' own loops (the scrape receiver's
// polling, when Config.ScrapeTargets is set) and blocks until ctx is
// done. Delivery does not wait for it: collection cycles and pushes
// are routed and written in their own goroutines, so a cycle's data is
// stored before the retention, spill and alert passes after it run,
// and a push's 204 is sent after its write.
func (s *System) RunIngest(ctx context.Context) error {
	return s.Ingest.Run(ctx)
}

// RunLive drives the simulation in real time, scaled by timeScale
// (e.g. 60 = one simulated hour per wall-clock minute), until ctx is
// done. It is what cmd/monsterd uses.
func (s *System) RunLive(ctx context.Context, clk clock.Clock, timeScale float64, tick time.Duration) error {
	if timeScale <= 0 {
		timeScale = 1
	}
	if tick <= 0 {
		tick = time.Second
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(tick):
		}
		simStep := time.Duration(float64(tick) * timeScale)
		if err := s.AdvanceCollecting(ctx, simStep); err != nil {
			return err
		}
	}
}
