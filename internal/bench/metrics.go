package bench

import "encoding/json"

// MetricDef names one reported quantity. The tables below are the
// single source of the metric set: BENCHMARK.json repeats them for the
// acceptance driver and a test keeps the two in step.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it is a regression. Per-layer metrics
	// explain a change; they do not gate one, so they carry no bound.
	Bound float64 `json:"bound,omitempty"`
}

// EndToEnd is what a user of the deployment sees. Every workload
// reports every one; what "operation" means is fixed per workload (see
// Workloads): a collection cycle, an HTTP request, or a dashboard
// session of six requests.
var EndToEnd = []MetricDef{
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"disk_bytes_per_point", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer is named <module>.<what>. A metric reads 0 on a workload
// that never enters that layer (redfish.* on dash-6h, builder.* on
// collect) — the layer did no work there, and the prediction for it is
// "no change".
var PerLayer = []MetricDef{
	// Simulation loop and the per-cycle maintenance core drives.
	{Name: "core.substrate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.maintenance_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cycle_tail_percentile", Unit: "%", Better: "higher"},
	{Name: "core.cycle_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "core.cycle_ms_max", Unit: "ms", Better: "lower"},
	// Out-of-band sweep.
	{Name: "redfish.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "redfish.requests_per_cycle", Unit: "count", Better: "lower"},
	{Name: "redfish.failures", Unit: "count", Better: "lower"},
	// Scheduler poll, job diffing, point building, enqueue.
	{Name: "collector.preprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.cycle_noemit_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.points_per_cycle", Unit: "count", Better: "higher"},
	// Pipeline: router and local sink.
	{Name: "ingest.sink_write_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.route_us_per_kpoint", Unit: "us", Better: "lower"},
	{Name: "ingest.points_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest.points_dropped", Unit: "count", Better: "lower"},
	{Name: "ingest.accounting_ok", Unit: "count", Better: "higher"},
	// Storage engine, write side.
	{Name: "tsdb.write_us_per_kpoint_mem", Unit: "us", Better: "lower"},
	{Name: "tsdb.write_us_per_kpoint_wal", Unit: "us", Better: "lower"},
	{Name: "tsdb.write_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.wal_bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "tsdb.wal_syncs", Unit: "count", Better: "lower"},
	{Name: "tsdb.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "tsdb.checkpoint_ms_max", Unit: "ms", Better: "lower"},
	{Name: "tsdb.blocks_sealed", Unit: "count", Better: "higher"},
	{Name: "tsdb.blocks_spilled", Unit: "count", Better: "higher"},
	{Name: "tsdb.cold_bytes", Unit: "B", Better: "lower"},
	{Name: "tsdb.compression_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tsdb.heap_bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "tsdb.recovery_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.recovery_replayed_points", Unit: "count", Better: "lower"},
	// Storage engine, read side.
	{Name: "tsdb.query_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.points_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "tsdb.rows_per_query", Unit: "count", Better: "lower"},
	{Name: "tsdb.blocks_decoded_per_query", Unit: "count", Better: "lower"},
	{Name: "tsdb.blocks_from_disk_per_query", Unit: "count", Better: "lower"},
	{Name: "tsdb.cold_read_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "tsdb.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tsdb.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "tsdb.tier_raw_equivalent_per_query", Unit: "count", Better: "higher"},
	{Name: "tsdb.lock_wait_us", Unit: "us", Better: "lower"},
	// Metrics Builder and transport.
	{Name: "builder.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "builder.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "builder.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "builder.compress_ms", Unit: "ms", Better: "lower"},
	{Name: "builder.queries_per_request", Unit: "count", Better: "lower"},
	{Name: "builder.raw_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "builder.compress_ratio", Unit: "ratio", Better: "higher"},
	{Name: "http.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "http.wire_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "alerting.evaluate_ms", Unit: "ms", Better: "lower"},
	// mixed-live: request classes beside ingest, and the open-loop
	// cycle driver.
	{Name: "mix.drill_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mix.drill_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "mix.dash_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mix.tier_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mix.rackscan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mix.dash_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "mix.queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mix.cycle_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mix.cycle_late_ms_p90", Unit: "ms", Better: "lower"},
	// Go runtime, divided by the workload's operation.
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.gomaxprocs", Unit: "count", Better: "higher"},
	// The tracing itself.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.accounted_pct", Unit: "%", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

// WorkloadDef is the name and the reason of one workload, as
// BENCHMARK.json lists it.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// RunSeconds is the measured window BENCHMARK.json asks for. It is
// sized so that every workload collects the hundred operations a p90
// needs on a 2-core host, and so that the acceptance driver's ~92 runs
// with their set-up stay well inside its hour.
const RunSeconds = 10

// ManifestJSON renders BENCHMARK.json from the tables above, so the
// file the acceptance driver reads cannot drift from what the harness
// reports: loadgen -manifest prints it and a test compares the two.
func ManifestJSON() []byte {
	data, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []WorkloadDef `json:"workloads"`
		EndToEnd   []MetricDef   `json:"end_to_end"`
		PerLayer   []MetricDef   `json:"per_layer"` // no Bound, so no "bound" key
	}{
		Command:    []string{"go", "run", "./cmd/loadgen"},
		Paths:      []string{"cmd/loadgen", "internal/bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads(),
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(data, '\n')
}
