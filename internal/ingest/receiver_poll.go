package ingest

import (
	"context"

	"monster/internal/collector"
)

// PollReceiver re-homes the classic centralized poller — the Redfish
// BMC sweep plus the resource-manager query — behind the Receiver
// interface. Binding redirects the collector's per-cycle output into
// the pipeline (collector.Options.Emit); the collector keeps all of
// its sweep, pre-processing, and cycle accounting. Cycles are driven
// from outside (core.System.AdvanceCollecting calls CollectOnce at
// every interval boundary), so the receiver has no loop of its own.
type PollReceiver struct {
	col *collector.Collector
}

// NewPollReceiver wraps an existing collector.
func NewPollReceiver(col *collector.Collector) *PollReceiver {
	return &PollReceiver{col: col}
}

// Name implements Receiver.
func (r *PollReceiver) Name() string { return "poll" }

// Bind implements Receiver by redirecting the collector's output into
// the pipeline.
func (r *PollReceiver) Bind(emit EmitFunc) { r.col.SetEmit(emit) }

// Run implements Receiver; the poll receiver has nothing to run.
func (r *PollReceiver) Run(ctx context.Context) error { return nil }

// ExtraStats surfaces the collector's sweep counters alongside the
// pipeline's receive accounting.
func (r *PollReceiver) ExtraStats() map[string]int64 {
	st := r.col.Stats()
	return map[string]int64{
		"cycles":       st.Cycles,
		"bmc_requests": st.BMCRequests,
		"bmc_failures": st.BMCFailures,
		"nodes_swept":  st.NodesSwept,
		"nodes_failed": st.NodesFailed,
		"jobs_tracked": st.JobsTracked,
	}
}
