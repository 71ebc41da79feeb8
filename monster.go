// Package monster is a from-scratch, stdlib-only reproduction of
// MonSTer, the "out-of-the-box" HPC monitoring tool of Li et al.
// (IEEE CLUSTER 2020): a Metrics Collector that polls Redfish BMCs and
// a UGE/Slurm-style resource manager, a time-series storage engine, a
// Metrics Builder aggregation API with zlib transport compression, and
// the HiperJobViz analysis layer (k-means host groups, radar profiles,
// job timelines).
//
// Because the paper's substrate is a 467-node production cluster, this
// package also ships a complete simulated substrate — node physics,
// iDRAC-like BMCs with realistic latency and failure modes, a
// qmaster/execd resource manager with a synthetic workload — so the
// entire pipeline runs end to end on a laptop.
//
// Quick start:
//
//	sys := monster.New(monster.Config{Nodes: 32})
//	sys.AdvanceCollecting(ctx, 30*time.Minute) // simulate + collect
//	resp, _, _ := sys.Builder.Fetch(ctx, monster.Request{
//	    Start: sys.Config.Start, End: sys.Now(), Interval: 5 * time.Minute,
//	    Aggregate: "max",
//	})
//
// See the examples directory for runnable scenarios, and the
// experiments API (RunExperiment) for regenerating every table and
// figure of the paper's evaluation.
package monster

import (
	"io"
	"time"

	"monster/internal/alerting"
	"monster/internal/analysis"
	"monster/internal/builder"
	"monster/internal/collector"
	"monster/internal/core"
	"monster/internal/experiments"
	"monster/internal/ingest"
	"monster/internal/scheduler"
	"monster/internal/simnode"
	"monster/internal/tsdb"
)

// Deployment surface: the wired system.
type (
	// Config assembles a simulated cluster plus monitoring pipeline.
	Config = core.Config
	// System is a running MonSTer deployment.
	System = core.System
)

// New builds a System from a Config; zero values select the defaults
// documented on core.Config. It panics on bad configuration or failed
// storage recovery; daemons should prefer NewSystem.
func New(cfg Config) *System { return core.New(cfg) }

// NewSystem builds a System, returning configuration and storage
// recovery errors instead of panicking.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// QuanahNodes is the paper deployment's cluster size (467).
const QuanahNodes = core.QuanahNodes

// Collector / storage surface.
type (
	// SchemaVersion selects the previous (v1) or optimized (v2)
	// database layout (Section IV-B2 of the paper).
	SchemaVersion = collector.SchemaVersion
	// CollectorStats counts collector activity.
	CollectorStats = collector.Stats
	// DB is the time-series storage engine.
	DB = tsdb.DB
	// DBOptions configures a DB.
	DBOptions = tsdb.Options
	// Point is a single stored sample.
	Point = tsdb.Point
	// Value is a dynamically typed field value.
	Value = tsdb.Value
	// Tags is a canonicalizable tag set.
	Tags = tsdb.Tags
	// QueryResult is the answer to one query.
	QueryResult = tsdb.Result
	// RollupSpec is a continuous downsampling query (DB.RegisterRollup).
	RollupSpec = tsdb.RollupSpec
	// WALOptions configures the write-ahead log under a durable DB.
	WALOptions = tsdb.WALOptions
	// WALStats counts write-ahead-log activity and recovery outcomes.
	WALStats = tsdb.WALStats
	// FsyncPolicy selects when the WAL fsyncs (always/interval/never).
	FsyncPolicy = tsdb.FsyncPolicy
	// RecoveryInfo summarizes what a durable open reconstructed.
	RecoveryInfo = tsdb.RecoveryInfo
	// CompressionStats reports the sealed-block tier's raw vs
	// compressed data volume (DB.Compression).
	CompressionStats = tsdb.CompressionStats
	// CacheStats reports the sealed-block decode cache's hit/miss/
	// eviction counters and resident bytes (DB.CacheStats).
	CacheStats = tsdb.CacheStats
	// TierStats describes one registered rollup tier: its source,
	// aggregate, materialized point count, and watermark (DB.TierStats).
	TierStats = tsdb.TierStats
	// ColdStats reports the file-backed cold tier's block placement
	// (resident vs spilled), segment footprint, and spill/read/
	// compaction counters (DB.ColdStats).
	ColdStats = tsdb.ColdStats
)

// DefaultBlockSize is the storage engine's default seal threshold in
// points (DBOptions.BlockSize zero value resolves to it).
const DefaultBlockSize = tsdb.DefaultBlockSize

// WAL fsync policies.
const (
	FsyncInterval = tsdb.FsyncInterval
	FsyncAlways   = tsdb.FsyncAlways
	FsyncNever    = tsdb.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return tsdb.ParseFsyncPolicy(s) }

// RecoverDB opens a crash-safe storage engine rooted at wopts.Dir:
// checkpoint snapshot + WAL replay on open, write-ahead logging of
// every mutation thereafter, and DB.Checkpoint to snapshot + truncate.
func RecoverDB(opts DBOptions, wopts WALOptions) (*DB, RecoveryInfo, error) {
	return tsdb.OpenDurable(opts, wopts)
}

// Schema versions.
const (
	SchemaOptimized = collector.SchemaV2
	SchemaPrevious  = collector.SchemaV1
)

// OpenDB creates an empty storage engine (normally you use the one
// wired into a System).
func OpenDB(opts DBOptions) *DB { return tsdb.Open(opts) }

// LoadDB restores a storage engine from a snapshot file written with
// DB.SaveFile.
func LoadDB(path string) (*DB, error) { return tsdb.LoadFile(path) }

// Ingest pipeline surface (receivers → router → sinks).
type (
	// IngestPipeline wires receivers through the router into sinks
	// with bounded, overflow-policied stage queues.
	IngestPipeline = ingest.Pipeline
	// IngestOptions configures a standalone pipeline.
	IngestOptions = ingest.Options
	// IngestRule is one declarative router transformation.
	IngestRule = ingest.Rule
	// IngestStats is the per-stage counter snapshot (the /v1/stats
	// "ingest" section).
	IngestStats = ingest.PipelineStats
	// OverflowPolicy selects block vs drop-oldest on a full stage.
	OverflowPolicy = ingest.OverflowPolicy
	// PushReceiver accepts line protocol over HTTP POST.
	PushReceiver = ingest.PushReceiver
	// ScrapeReceiver polls Prometheus-style exposition endpoints.
	ScrapeReceiver = ingest.ScrapeReceiver
	// ForwardSink relays routed points to a peer push endpoint.
	ForwardSink = ingest.ForwardSink
	// TSDBSink writes routed points into a local storage engine.
	TSDBSink = ingest.TSDBSink
)

// Overflow policies for a full pipeline stage.
const (
	OverflowBlock      = ingest.OverflowBlock
	OverflowDropOldest = ingest.OverflowDropOldest
)

// NewIngestPipeline builds a standalone pipeline (normally you use the
// one wired into a System).
func NewIngestPipeline(opts IngestOptions) (*IngestPipeline, error) { return ingest.New(opts) }

// ParseIngestRule parses one declarative router rule, e.g.
// "add_tag:cluster=quanah" or "derive:PowerKW.Reading=Power.Reading*0.001".
func ParseIngestRule(s string) (IngestRule, error) { return ingest.ParseRule(s) }

// FormatLineProtocol renders points in InfluxDB line protocol.
func FormatLineProtocol(points []Point) []byte { return tsdb.FormatLineProtocol(points) }

// ParseLineProtocol parses InfluxDB line protocol into points.
func ParseLineProtocol(data []byte, defaultTime int64) ([]Point, error) {
	return tsdb.ParseLineProtocol(data, defaultTime)
}

// Metrics Builder surface.
type (
	// Request is a consumer's (time range, interval, aggregate) ask.
	Request = builder.Request
	// Response is the builder's JSON answer.
	Response = builder.Response
	// Metric identifies one per-node series.
	Metric = builder.Metric
	// BuilderClient fetches from a remote builder API.
	BuilderClient = builder.Client
	// BuilderStats is the per-stage build breakdown (queries issued,
	// points scanned, bytes, stage timings) reported with every fetch.
	BuilderStats = builder.Stats
	// BuilderCache is an LRU response cache over a Builder.
	BuilderCache = builder.Cache
	// JobRecord is job info returned with IncludeJobs.
	JobRecord = builder.JobRecord
	// NodeSeries is one node's metrics within a Response.
	NodeSeries = builder.NodeSeries
	// SeriesData is one downsampled series.
	SeriesData = builder.SeriesData
)

// DefaultMetrics is the full per-node metric set (Tables I and II).
func DefaultMetrics() []Metric { return builder.DefaultMetrics() }

// ExtendedMetrics adds the network/filesystem series (Section VI
// extensions, collected when Config.CollectNetwork is set).
func ExtendedMetrics() []Metric { return builder.ExtendedMetrics() }

// EncodeResponse renders a builder response as its JSON wire format.
func EncodeResponse(resp *Response) ([]byte, error) { return builder.Encode(resp) }

// DecodeResponse parses the JSON wire format.
func DecodeResponse(data []byte) (*Response, error) { return builder.Decode(data) }

// Compress zlib-compresses a builder response body (the Fig 18/19
// transport optimization).
func Compress(data []byte, level int) ([]byte, error) { return builder.Compress(data, level) }

// Decompress reverses Compress.
func Decompress(data []byte) ([]byte, error) { return builder.Decompress(data) }

// Scheduler / workload surface.
type (
	// JobSpec is a qsub request.
	JobSpec = scheduler.JobSpec
	// UserProfile describes one synthetic user's behaviour.
	UserProfile = scheduler.UserProfile
	// AccountingRecord is an ARCo-style accounting row.
	AccountingRecord = scheduler.AccountingRecord
	// Workload is a time-ordered submission trace.
	Workload = scheduler.Workload
)

// GenerateWorkload builds a deterministic synthetic submission trace.
func GenerateWorkload(profiles []UserProfile, start time.Time, horizon time.Duration, seed int64) *Workload {
	return scheduler.GenerateWorkload(profiles, start, horizon, seed)
}

// LoadTrace reads a JSON submission trace (see Workload.SaveTrace).
func LoadTrace(in io.Reader) (*Workload, error) { return scheduler.LoadTrace(in) }

// LoadSWF imports a Parallel Workloads Archive trace (Standard
// Workload Format) for replay; it returns the workload and how many
// degenerate records were skipped.
func LoadSWF(in io.Reader, start time.Time, coresPerNode int) (*Workload, int, error) {
	return scheduler.LoadSWF(in, start, coresPerNode)
}

// Parallel environments for JobSpec.PE.
const (
	PESerial = scheduler.PESerial
	PESMP    = scheduler.PESMP
	PEMPI    = scheduler.PEMPI
)

// DefaultUserMix models the paper's Figure 6 user population.
func DefaultUserMix() []UserProfile { return scheduler.DefaultUserMix() }

// Node simulation surface (fault injection for demos and tests).
type (
	// NodeFault selects an injectable node failure mode.
	NodeFault = simnode.Fault
	// Node is one simulated compute node.
	Node = simnode.Node
)

// Fault kinds.
const (
	FaultNone       = simnode.FaultNone
	FaultOverheat   = simnode.FaultOverheat
	FaultMemLeak    = simnode.FaultMemLeak
	FaultBMCDegrade = simnode.FaultBMCDegrade
	FaultHostDown   = simnode.FaultHostDown
)

// HealthDimensions names the nine-dimensional node health vector used
// by the radar and clustering views.
func HealthDimensions() [9]string { return simnode.HealthDimensions() }

// Analysis (HiperJobViz data layer) surface.
type (
	// KMeansResult is a clustering outcome.
	KMeansResult = analysis.KMeansResult
	// KMeansOptions tunes clustering (K defaults to the paper's 7).
	KMeansOptions = analysis.KMeansOptions
	// RadarProfile is a node's radar-chart profile.
	RadarProfile = analysis.RadarProfile
	// Timeline is the Fig 6 job-scheduling artifact.
	Timeline = analysis.Timeline
	// TimelineJob is one bar of the timeline.
	TimelineJob = analysis.TimelineJob
	// TrendSeries is the Fig 8 historical view.
	TrendSeries = analysis.TrendSeries
	// UserUsageMatrix is the Fig 9 per-user histogram matrix.
	UserUsageMatrix = analysis.UserUsageMatrix
	// Dashboard composes the HiperJobViz views into one static HTML
	// page.
	Dashboard = analysis.Dashboard
)

// Bounds holds per-dimension normalization extrema.
type Bounds = analysis.Bounds

// KMeans clusters health vectors (k-means++, Lloyd iterations).
func KMeans(vectors [][]float64, opts KMeansOptions) (*KMeansResult, error) {
	return analysis.KMeans(vectors, opts)
}

// ComputeBounds scans vectors for per-dimension extrema.
func ComputeBounds(vectors [][]float64) Bounds { return analysis.ComputeBounds(vectors) }

// Normalize min-max scales vectors into [0,1] using bounds.
func Normalize(vectors [][]float64, b Bounds) [][]float64 { return analysis.Normalize(vectors, b) }

// ClusterByActivity ranks clusters by centroid mean so group labels
// are stable (coolest first).
func ClusterByActivity(centroids [][]float64) []int { return analysis.ClusterByActivity(centroids) }

// RankAnomalies orders node indices by distance from their cluster
// centroid, most anomalous first.
func RankAnomalies(norm [][]float64, res *KMeansResult) []int {
	return analysis.RankAnomalies(norm, res)
}

// BuildRadarProfiles prepares radar-chart profiles from raw health
// vectors.
func BuildRadarProfiles(nodeIDs []string, dims []string, raw [][]float64, assignment []int) ([]RadarProfile, error) {
	return analysis.BuildRadarProfiles(nodeIDs, dims, raw, assignment)
}

// BuildTimeline assembles the Fig 6 artifact from job records.
func BuildTimeline(jobs []TimelineJob, start, end int64) *Timeline {
	return analysis.BuildTimeline(jobs, start, end)
}

// DistinctUserHosts derives per-user distinct host counts from
// node→jobs correlations (the Fig 6 margin statistic).
func DistinctUserHosts(nodeJobs map[string][]string, owner map[string]string) map[string]int {
	return analysis.DistinctUserHosts(nodeJobs, owner)
}

// BuildTrend assembles a Fig 8 history with cluster bands.
func BuildTrend(nodeID string, times []int64, dims []string, vectors [][]float64, res *KMeansResult, bounds Bounds) *TrendSeries {
	return analysis.BuildTrend(nodeID, times, dims, vectors, res, bounds)
}

// BuildUserUsageMatrix groups per-user samples into the Fig 9
// histogram matrix.
func BuildUserUsageMatrix(samples map[string]map[string][]float64, nbins int) *UserUsageMatrix {
	return analysis.BuildUserUsageMatrix(samples, nbins)
}

// SVG renderers for static versions of the HiperJobViz views.
func RadarSVG(p *RadarProfile, size int) string { return analysis.RadarSVG(p, size) }

// TimelineSVG renders the Fig 6 timeline.
func TimelineSVG(tl *Timeline, width int) string { return analysis.TimelineSVG(tl, width) }

// TrendSVG renders the Fig 8 history.
func TrendSVG(ts *TrendSeries, ranks []int, width, height int) string {
	return analysis.TrendSVG(ts, ranks, width, height)
}

// HistogramMatrixSVG renders the Fig 9 histogram matrix.
func HistogramMatrixSVG(m *UserUsageMatrix, cell int) string {
	return analysis.HistogramMatrixSVG(m, cell)
}

// Cross-metric correlation (the paper's "cross-compare and correlate
// the sub-components" program).
type (
	// CorrSeries is one named, aligned sample vector.
	CorrSeries = analysis.Series
	// CorrelationMatrix holds pairwise Pearson coefficients.
	CorrelationMatrix = analysis.CorrelationMatrix
)

// Pearson computes the correlation coefficient of two vectors.
func Pearson(a, b []float64) float64 { return analysis.Pearson(a, b) }

// Correlate builds the pairwise correlation matrix of aligned series.
func Correlate(series []CorrSeries) *CorrelationMatrix { return analysis.Correlate(series) }

// CorrelationOutliers ranks entities by how far their per-entity (x,y)
// correlation deviates from the population median — stuck sensors and
// broken power readings surface first.
func CorrelationOutliers(xs, ys [][]float64) []int { return analysis.CorrelationOutliers(xs, ys) }

// Energy / usage attribution (the paper's job↔resource correlation).
type (
	// AttributionInput is the three measurement streams attribution
	// joins.
	AttributionInput = analysis.AttributionInput
	// AttributionResult is the energy ledger.
	AttributionResult = analysis.AttributionResult
	// JobEnergy is one job's attributed consumption.
	JobEnergy = analysis.JobEnergy
	// PowerSample is one node power reading.
	PowerSample = analysis.PowerSample
	// NodeJobsSample is one node→jobs correlation sample.
	NodeJobsSample = analysis.NodeJobsSample
	// JobMeta is the job metadata attribution needs.
	JobMeta = analysis.JobMeta
)

// AttributeEnergy apportions node energy to resident jobs and users.
func AttributeEnergy(in AttributionInput) *AttributionResult {
	return analysis.AttributeEnergy(in)
}

// AttributionFromResponse assembles an AttributionInput from one
// Metrics Builder response that was fetched with IncludeJobs and the
// Power metric — the consumer-side join the paper's middleware enables.
func AttributionFromResponse(resp *Response, idleWatts float64) AttributionInput {
	in := AttributionInput{
		IdleWatts: idleWatts,
		Power:     make(map[string][]PowerSample),
		NodeJobs:  make(map[string][]NodeJobsSample),
		Jobs:      make(map[string]JobMeta),
	}
	for _, ns := range resp.Nodes {
		sd, ok := ns.Metrics["Power/NodePower"]
		if !ok {
			continue
		}
		samples := make([]PowerSample, len(sd.Times))
		for i := range sd.Times {
			samples[i] = PowerSample{Time: sd.Times[i], Watts: sd.Values[i]}
		}
		in.Power[ns.NodeID] = samples
	}
	for _, nj := range resp.NodeJobs {
		in.NodeJobs[nj.NodeID] = append(in.NodeJobs[nj.NodeID], NodeJobsSample{Time: nj.Time, Jobs: nj.Jobs})
	}
	for _, j := range resp.Jobs {
		in.Jobs[j.JobID] = JobMeta{
			Key:       j.JobID,
			User:      j.User,
			Slots:     int(j.Slots),
			NodeCount: int(j.NodeCount),
		}
	}
	return in
}

// Alerting surface (the Nagios role of Section II, fed from the DB).
type (
	// AlertRule is one threshold check over a per-node metric.
	AlertRule = alerting.Rule
	// AlertEngine evaluates rules with flap damping.
	AlertEngine = alerting.Engine
	// AlertEvent is one state transition.
	AlertEvent = alerting.Event
	// AlertSeverity is OK / WARNING / CRITICAL.
	AlertSeverity = alerting.Severity
)

// Alert severities and threshold directions.
const (
	AlertOK       = alerting.SeverityOK
	AlertWarning  = alerting.SeverityWarning
	AlertCritical = alerting.SeverityCritical
	AlertAbove    = alerting.Above
	AlertBelow    = alerting.Below
)

// DefaultAlertRules covers the Table I alerting surface (CPU/inlet
// temperature, fan stall, node power).
func DefaultAlertRules() []AlertRule { return alerting.DefaultRules() }

// NewAlertEngine builds an engine over a DB.
func NewAlertEngine(db *DB, rules []AlertRule) (*AlertEngine, error) {
	return alerting.New(db, rules)
}

// Experiments surface: regenerate the paper's tables and figures.
type ExperimentTable = experiments.Table

// RunExperiment executes one paper artifact by ID (e.g. "fig13",
// "table4"); quick selects a reduced scale.
func RunExperiment(id string, quick bool) (*ExperimentTable, error) {
	return experiments.Run(id, quick)
}

// ExperimentIDs lists every reproducible artifact.
func ExperimentIDs() []string { return experiments.IDs() }
