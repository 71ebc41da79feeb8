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
//
// The facade names what the examples, the commands and the README use,
// plus every type a facade function takes as a parameter; a type that
// only appears as a result is reached through the returned value.
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

// Collector / storage surface.
type (
	// SchemaVersion selects the previous (v1) or optimized (v2)
	// database layout (Section IV-B2 of the paper).
	SchemaVersion = collector.SchemaVersion
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
	// RollupSpec is a continuous downsampling query (DB.RegisterRollup).
	RollupSpec = tsdb.RollupSpec
	// WALOptions configures the write-ahead log under a durable DB.
	WALOptions = tsdb.WALOptions
)

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (tsdb.FsyncPolicy, error) { return tsdb.ParseFsyncPolicy(s) }

// RecoverDB opens a crash-safe storage engine rooted at wopts.Dir:
// checkpoint snapshot + WAL replay on open, write-ahead logging of
// every mutation thereafter, and DB.Checkpoint to snapshot + truncate.
func RecoverDB(opts DBOptions, wopts WALOptions) (*DB, tsdb.RecoveryInfo, error) {
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
	// NodeSeries is one node's metrics within a Response.
	NodeSeries = builder.NodeSeries
	// SeriesData is one downsampled series.
	SeriesData = builder.SeriesData
)

// ExtendedMetrics adds the network/filesystem series (Section VI
// extensions, collected when Config.CollectNetwork is set).
func ExtendedMetrics() []Metric { return builder.ExtendedMetrics() }

// EncodeResponse renders a builder response as its JSON wire format.
func EncodeResponse(resp *Response) ([]byte, error) { return builder.Encode(resp) }

// Compress zlib-compresses a builder response body (the Fig 18/19
// transport optimization).
func Compress(data []byte, level int) ([]byte, error) { return builder.Compress(data, level) }

// Decompress reverses Compress.
func Decompress(data []byte) ([]byte, error) { return builder.Decompress(data) }

// UserProfile describes one synthetic user's behaviour.
type UserProfile = scheduler.UserProfile

// GenerateWorkload builds a deterministic synthetic submission trace.
func GenerateWorkload(profiles []UserProfile, start time.Time, horizon time.Duration, seed int64) *scheduler.Workload {
	return scheduler.GenerateWorkload(profiles, start, horizon, seed)
}

// LoadTrace reads a JSON submission trace (see Workload.SaveTrace).
func LoadTrace(in io.Reader) (*scheduler.Workload, error) { return scheduler.LoadTrace(in) }

// LoadSWF imports a Parallel Workloads Archive trace (Standard
// Workload Format) for replay; it returns the workload and how many
// degenerate records were skipped.
func LoadSWF(in io.Reader, start time.Time, coresPerNode int) (*scheduler.Workload, int, error) {
	return scheduler.LoadSWF(in, start, coresPerNode)
}

// DefaultUserMix models the paper's Figure 6 user population.
func DefaultUserMix() []UserProfile { return scheduler.DefaultUserMix() }

// Injectable node faults (simnode.Node.Inject) for demos and tests.
const (
	FaultOverheat   = simnode.FaultOverheat
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
	// Bounds holds per-dimension normalization extrema.
	Bounds = analysis.Bounds
)

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

// CorrSeries is one named, aligned sample vector for cross-metric
// correlation (the paper's "cross-compare and correlate the
// sub-components" program).
type CorrSeries = analysis.Series

// Pearson computes the correlation coefficient of two vectors.
func Pearson(a, b []float64) float64 { return analysis.Pearson(a, b) }

// Correlate builds the pairwise correlation matrix of aligned series.
func Correlate(series []CorrSeries) *analysis.CorrelationMatrix { return analysis.Correlate(series) }

// Energy / usage attribution (the paper's job↔resource correlation).
type (
	// AttributionInput is the three measurement streams attribution
	// joins.
	AttributionInput = analysis.AttributionInput
	// JobEnergy is one job's attributed consumption.
	JobEnergy = analysis.JobEnergy
)

// AttributeEnergy apportions node energy to resident jobs and users.
func AttributeEnergy(in AttributionInput) *analysis.AttributionResult {
	return analysis.AttributeEnergy(in)
}

// AttributionFromResponse assembles an AttributionInput from one
// Metrics Builder response that was fetched with IncludeJobs and the
// Power metric — the consumer-side join the paper's middleware enables.
func AttributionFromResponse(resp *Response, idleWatts float64) AttributionInput {
	in := AttributionInput{
		IdleWatts: idleWatts,
		Power:     make(map[string][]analysis.PowerSample),
		NodeJobs:  make(map[string][]analysis.NodeJobsSample),
		Jobs:      make(map[string]analysis.JobMeta),
	}
	for _, ns := range resp.Nodes {
		sd, ok := ns.Metrics["Power/NodePower"]
		if !ok {
			continue
		}
		samples := make([]analysis.PowerSample, len(sd.Times))
		for i := range sd.Times {
			samples[i] = analysis.PowerSample{Time: sd.Times[i], Watts: sd.Values[i]}
		}
		in.Power[ns.NodeID] = samples
	}
	for _, nj := range resp.NodeJobs {
		in.NodeJobs[nj.NodeID] = append(in.NodeJobs[nj.NodeID], analysis.NodeJobsSample{Time: nj.Time, Jobs: nj.Jobs})
	}
	for _, j := range resp.Jobs {
		in.Jobs[j.JobID] = analysis.JobMeta{
			Key:       j.JobID,
			User:      j.User,
			Slots:     int(j.Slots),
			NodeCount: int(j.NodeCount),
		}
	}
	return in
}

// AlertRule is one threshold check over a per-node metric (the Nagios
// role of Section II, fed from the DB).
type AlertRule = alerting.Rule

// AlertCritical is the CRITICAL alert severity.
const AlertCritical = alerting.SeverityCritical

// DefaultAlertRules covers the Table I alerting surface (CPU/inlet
// temperature, fan stall, node power).
func DefaultAlertRules() []AlertRule { return alerting.DefaultRules() }

// NewAlertEngine builds an engine over a DB.
func NewAlertEngine(db *DB, rules []AlertRule) (*alerting.Engine, error) {
	return alerting.New(db, rules)
}

// RunExperiment executes one paper artifact by ID (e.g. "fig13",
// "table4"); quick selects a reduced scale.
func RunExperiment(id string, quick bool) (*experiments.Table, error) {
	return experiments.Run(id, quick)
}

// ExperimentIDs lists every reproducible artifact.
func ExperimentIDs() []string { return experiments.IDs() }
