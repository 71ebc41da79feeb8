// Command monsterd runs a complete MonSTer deployment over a simulated
// cluster: node physics, BMC fleet, resource manager with a synthetic
// workload, the Metrics Collector, and the Metrics Builder HTTP API.
//
// The simulation advances at -scale simulated seconds per wall-clock
// second, so a day of telemetry can be produced in minutes. Query the
// builder with cmd/mquery or any HTTP client:
//
//	monsterd -nodes 64 -scale 60 -listen :8080
//	curl 'http://localhost:8080/v1/metrics?start=<epoch>&end=<epoch>&interval=5m&agg=max'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"monster"
	"monster/internal/clock"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 64, "simulated cluster size (467 = paper scale)")
		scale     = flag.Float64("scale", 60, "simulated seconds per wall-clock second")
		listen    = flag.String("listen", ":8080", "Metrics Builder API listen address")
		schedAddr = flag.String("sched-listen", "", "optional resource-manager API listen address (e.g. :8081)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		schema    = flag.String("schema", "optimized", "storage schema: optimized | previous")
		duration  = flag.Duration("duration", 0, "stop after serving this long in wall-clock time, counted from the end of the warmup (0 = run until interrupted)")
		warmup    = flag.Duration("warmup", 30*time.Minute, "simulated warmup before serving (fills the DB)")
		retention = flag.Duration("retention", 0, "drop data older than this (0 = keep everything)")
		blockSize = flag.Int("block-size", 0, "storage seal threshold in points: columns this long compress into immutable blocks (0 = default 1024, at most 16777216)")
		snapshot  = flag.String("snapshot", "", "write a database snapshot to this file on shutdown")
		workload  = flag.String("workload", "", "replay a workload trace (.json from SaveTrace, or .swf from the Parallel Workloads Archive)")

		walDir        = flag.String("wal-dir", "", "enable crash-safe storage: write-ahead log + checkpoint snapshots in this directory; restarts recover automatically")
		fsync         = flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
		fsyncInterval = flag.Duration("fsync-interval", time.Second, "fsync cadence under -fsync interval (bounds power-loss exposure)")
		snapInterval  = flag.Duration("snapshot-interval", 5*time.Minute, "background checkpoint (snapshot + WAL truncation) cadence when -wal-dir is set")

		decodeCacheMB = flag.Int64("decode-cache-mb", 0, "sealed-block decode cache budget in MiB, charged 8 B per decoded numeric point while the block's times keep one fixed cadence, 16 B after they leave it, 4 B less when every float of the block is float32-exact (0 = default 64: about 16.8M points at an exact cadence with float32-exact values such as whole-number fan RPM, 8.4M at an exact cadence with readings in tenths such as the simulated temperatures and power, 4.2M when times drift from a block's start, as arrival-stamped scrape and push samples can)")
		coldDir       = flag.String("cold-dir", "", "enable the file-backed cold tier: sealed blocks past -cold-after spill compressed payloads to segment files in this directory")
		coldAfter     = flag.Duration("cold-after", time.Hour, "age past which sealed blocks spill to -cold-dir")
		coldMaxMB     = flag.Int64("cold-max-resident-mb", 0, "resident compressed sealed-block budget in MiB: oldest blocks past it spill to -cold-dir regardless of age (0 = age-only)")
		rawRetention  = flag.Duration("raw-retention", 0, "expire raw samples older than this once every covering -rollup tier has materialized them (0 = keep raw forever)")

		forward        = flag.String("forward", "", "relay every routed point to a peer monsterd push endpoint (e.g. http://peer:8080/v1/ingest/write)")
		forwardOnly    = flag.Bool("forward-only", false, "skip local storage and act as a pure relay (requires -forward)")
		scrape         = flag.String("scrape", "", "comma-separated Prometheus-style exposition endpoints to scrape")
		scrapeInterval = flag.Duration("scrape-interval", time.Minute, "scrape cadence for -scrape targets")
		sinkDebug      = flag.String("sink-debug", "", "render every routed point as line protocol to this file (\"-\" = stdout)")
	)
	var routes []string
	flag.Func("route", "router rule, repeatable (add_tag:k=v[@Measurement] | rename_tag:old=new | drop_tag:k | rename_measurement:old=new | drop:Measurement | derive:Out.F=In.F*scale[+offset])", func(s string) error {
		routes = append(routes, s)
		return nil
	})
	var rollups []monster.RollupSpec
	flag.Func("rollup", "materialized rollup tier, repeatable (Source.Field:agg@interval, e.g. Power.Reading:max@5m; chain tiers by using a prior target as Source)", func(s string) error {
		spec, err := parseRollupFlag(s)
		if err != nil {
			return err
		}
		rollups = append(rollups, spec)
		return nil
	})
	flag.Parse()

	// -decode-cache-mb and -cold-max-resident-mb speak MiB; Config
	// speaks bytes. Zero keeps its meaning (engine default, age-only
	// spilling) through the shift.
	cacheBytes := *decodeCacheMB << 20
	coldBudget := *coldMaxMB << 20
	if coldBudget != 0 && *coldDir == "" {
		log.Fatalf("monsterd: -cold-max-resident-mb needs -cold-dir")
	}
	cfg := monster.Config{
		Nodes: *nodes, Seed: *seed, ConcurrentQueries: true,
		Retention:        *retention,
		BlockSize:        *blockSize,
		AlertRules:       monster.DefaultAlertRules(),
		IngestRules:      routes,
		ForwardTo:        *forward,
		ForwardOnly:      *forwardOnly,
		ScrapeInterval:   *scrapeInterval,
		Rollups:          rollups,
		RawRetention:     *rawRetention,
		DecodeCacheBytes: cacheBytes,
	}
	if *coldDir != "" {
		cfg.ColdDir = *coldDir
		cfg.ColdAfter = *coldAfter
		cfg.ColdMaxResidentBytes = coldBudget
	}
	if *rawRetention > 0 && len(rollups) == 0 {
		log.Fatalf("monsterd: -raw-retention needs at least one -rollup tier to cover the expired range")
	}
	if *scrape != "" {
		cfg.ScrapeTargets = strings.Split(*scrape, ",")
	}
	if *sinkDebug != "" {
		if *sinkDebug == "-" {
			cfg.DebugSink = os.Stdout
		} else {
			f, err := os.Create(*sinkDebug)
			if err != nil {
				log.Fatalf("monsterd: -sink-debug: %v", err)
			}
			defer f.Close()
			cfg.DebugSink = f
		}
	}
	if *walDir != "" {
		policy, err := monster.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("monsterd: %v", err)
		}
		cfg.WALDir = *walDir
		cfg.FsyncPolicy = policy
		cfg.FsyncInterval = *fsyncInterval
		cfg.SnapshotInterval = *snapInterval
	}
	switch *schema {
	case "optimized":
		cfg.Schema = monster.SchemaOptimized
	case "previous":
		cfg.Schema = monster.SchemaPrevious
	default:
		log.Fatalf("monsterd: unknown schema %q", *schema)
	}
	if *workload != "" {
		f, err := os.Open(*workload)
		if err != nil {
			log.Fatalf("monsterd: %v", err)
		}
		if strings.HasSuffix(*workload, ".swf") {
			trace, skipped, err := monster.LoadSWF(f, cfg.Start, 36)
			if err != nil {
				log.Fatalf("monsterd: %v", err)
			}
			log.Printf("monsterd: replaying %d SWF jobs (%d skipped)", trace.Len(), skipped)
			cfg.Trace = trace
		} else {
			trace, err := monster.LoadTrace(f)
			if err != nil {
				log.Fatalf("monsterd: %v", err)
			}
			log.Printf("monsterd: replaying %d traced jobs", trace.Len())
			cfg.Trace = trace
		}
		if err := f.Close(); err != nil {
			log.Fatalf("monsterd: %v", err)
		}
	}
	sys, err := monster.NewSystem(cfg)
	if err != nil {
		log.Fatalf("monsterd: %v", err)
	}
	if *walDir != "" {
		rec := sys.Recovery
		log.Printf("monsterd: storage recovery: snapshot=%t (%d points), wal records=%d points=%d torn_frames=%d",
			rec.SnapshotLoaded, rec.SnapshotPoints, rec.Records, rec.Points, rec.TornFrames)
	}

	// SIGTERM is what systemd, Docker and kill send; it stops through
	// the final checkpoint like Ctrl-C does, during the warmup too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A listener, the ingest pipeline or the checkpoint loop that fails
	// cancels ctx with its error as the cause: the process stops through
	// the same drain and final checkpoint, then exits non-zero.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)

	log.Printf("monsterd: warming up %v of simulated time over %d nodes", *warmup, *nodes)
	if err = sys.AdvanceCollecting(ctx, *warmup); err != nil {
		err = fmt.Errorf("warmup: %w", err)
	} else {
		st := sys.Collector.Stats()
		log.Printf("monsterd: warmup done: %d cycles, %d points, sim time %v", st.Cycles, st.PointsWritten, sys.Now().Format(time.RFC3339))
		err = serve(ctx, fail, sys, *duration, *listen, *schedAddr, *walDir, *scale)
	}
	// A stop can surface wrapped (the deadline landing inside a cycle
	// reads "core: collection at …: context deadline exceeded"); it
	// still stops through the final checkpoint.
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("monsterd: %v", err)
	}
	final := sys.Collector.Stats()
	fmt.Printf("monsterd: stopped at sim time %v after %d cycles, %d points written, %d BMC requests (%d failed)\n",
		sys.Now().Format(time.RFC3339), final.Cycles, final.PointsWritten, final.BMCRequests, final.BMCFailures)
	if *snapshot != "" {
		if err := sys.DB.SaveFile(*snapshot); err != nil {
			log.Fatalf("monsterd: snapshot: %v", err)
		}
		log.Printf("monsterd: snapshot written to %s", *snapshot)
	}
	if *walDir != "" {
		// A clean shutdown checkpoints so the next start replays an
		// empty log; a kill -9 skips this and replays the WAL.
		if err := sys.Checkpoint(); err != nil {
			log.Fatalf("monsterd: final checkpoint: %v", err)
		}
		log.Printf("monsterd: checkpointed %s", *walDir)
	}
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		log.Fatalf("monsterd: %v", cause)
	}
}

// serve runs the API listeners, the receivers' loops, the checkpoint
// loop and live collection until ctx is done, duration (counted from
// here, after the warmup; 0 = no limit) has passed or live collection
// fails, then returns live collection's error once the listeners have
// answered the requests they had in flight. A listener, the ingest
// pipeline or the checkpoint loop that fails reports its error through
// fail, which cancels ctx.
func serve(ctx context.Context, fail context.CancelCauseFunc, sys *monster.System, duration time.Duration, listen, schedAddr, walDir string, scale float64) error {
	// Everything started here stops when live collection does, whatever
	// stopped it: a failed cycle (a WAL append, a retention or spill
	// pass) must not leave the listeners serving a database nothing
	// fills any more.
	var cancel context.CancelFunc
	if duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, duration)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	mux := http.NewServeMux()
	mux.Handle("/v1/ingest/write", sys.Push)
	mux.Handle("/", sys.BuilderAPI)
	var servers sync.WaitGroup
	listenOn := func(what, addr string, h http.Handler) {
		servers.Add(1)
		go func() {
			defer servers.Done()
			if err := serveHTTP(ctx, what, addr, h); err != nil {
				fail(fmt.Errorf("%s: %w", what, err))
			}
		}()
	}
	listenOn("Metrics Builder API + push receiver", listen, mux)
	go func() {
		// The receivers' own loops (-scrape); pushes and cycles are
		// written in their own goroutines whether or not this runs.
		if err := sys.RunIngest(ctx); err != nil && ctx.Err() == nil {
			fail(fmt.Errorf("ingest pipeline: %w", err))
		}
	}()
	if schedAddr != "" {
		listenOn("resource-manager API", schedAddr, sys.SchedAPI)
	}

	clk := clock.NewReal()
	go progress(ctx, clk, sys)
	if walDir != "" {
		go func() {
			if err := sys.RunCheckpoints(ctx, clk); err != nil && ctx.Err() == nil {
				fail(fmt.Errorf("checkpoint loop: %w", err))
			}
		}()
	}
	err := sys.RunLive(ctx, clk, scale, time.Second)
	// Stop the listeners and loops, then wait until the requests the
	// listeners had in flight are answered, so the snapshot and
	// checkpoint that follow describe a database no request is still
	// using.
	cancel()
	servers.Wait()
	return err
}

// HTTP server limits. Constants, not flags: they bound what a slow or
// stalled peer can hold open, and no deployment has needed other values.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = time.Minute     // a pushed line-protocol body
	httpWriteTimeout      = 2 * time.Minute // a long-range builder response
	httpIdleTimeout       = 2 * time.Minute
	httpDrainTimeout      = 10 * time.Second
)

// serveHTTP listens on addr, logs the bound address under what, and
// serves h until ctx is cancelled, then shuts down gracefully: the
// listener closes, requests in flight get httpDrainTimeout to finish,
// and serveHTTP returns only once they have (or the drain timed out and
// the rest were cut off). A listener that cannot bind, or fails before
// cancellation, returns its error.
func serveHTTP(ctx context.Context, what, addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("monsterd: %s on %s", what, ln.Addr())
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(ln) }()
	select {
	case err := <-failed:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), httpDrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		log.Printf("monsterd: %s: drain: %v; closing open connections", addr, err)
		return srv.Close()
	}
	return nil
}

// parseRollupFlag parses "Source.Field:agg@interval" (interval is a Go
// duration) into a RollupSpec. The target name is always derived, so
// chained tiers reference parents by the derived "<Source>_<agg>_<N>s".
func parseRollupFlag(s string) (monster.RollupSpec, error) {
	var spec monster.RollupSpec
	head, ivS, ok := strings.Cut(s, "@")
	if !ok {
		return spec, fmt.Errorf("want Source.Field:agg@interval, got %q", s)
	}
	sf, agg, ok := strings.Cut(head, ":")
	if !ok {
		return spec, fmt.Errorf("want Source.Field:agg@interval, got %q", s)
	}
	src, field, ok := strings.Cut(sf, ".")
	if !ok {
		return spec, fmt.Errorf("want Source.Field:agg@interval, got %q", s)
	}
	iv, err := time.ParseDuration(ivS)
	if err != nil {
		return spec, fmt.Errorf("bad rollup interval %q: %v", ivS, err)
	}
	if iv < time.Second || iv%time.Second != 0 {
		return spec, fmt.Errorf("rollup interval %v must be a whole number of seconds", iv)
	}
	spec = monster.RollupSpec{Source: src, Field: field, Aggregate: agg, Interval: int64(iv / time.Second)}
	return spec, spec.Validate()
}

func progress(ctx context.Context, clk clock.Clock, sys *monster.System) {
	seenAlerts := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-clk.After(10 * time.Second):
			st := sys.Collector.Stats()
			d := sys.DB.Disk()
			log.Printf("monsterd: sim=%v cycles=%d points=%d volume=%.1f MB jobs-running=%d",
				sys.Now().Format("01-02 15:04"), st.Cycles, st.PointsWritten,
				float64(d.TotalBytes())/1e6, len(sys.QMaster.Running()))
			if sys.Alerts != nil {
				hist := sys.Alerts.History()
				for _, ev := range hist[seenAlerts:] {
					log.Printf("monsterd: ALERT %s", ev)
				}
				seenAlerts = len(hist)
			}
		}
	}
}
