// Package ingest is MonSTer's pluggable ingest pipeline: receivers →
// router → sinks, the composable architecture cc-metric-collector and
// DCDB use in place of a single hard-wired pull path.
//
//   - Receivers produce point batches: the classic redfish/slurm
//     poller re-homed behind the Receiver interface (PollReceiver), an
//     HTTP push receiver speaking InfluxDB line protocol
//     (PushReceiver), and a Prometheus-style scrape receiver
//     (ScrapeReceiver).
//   - The router applies declarative rules on the fly — tag
//     add/rename/drop, measurement renaming, point dropping, and
//     simple derived metrics (scale+offset of an existing field).
//   - Sinks consume routed batches: the local storage engine
//     (TSDBSink, preserving the collector's historical batch-write
//     accounting), a forward-to-peer HTTP sink speaking the push
//     receiver's wire format (ForwardSink), and a line-protocol debug
//     writer (DebugSink).
//
// Every batch takes one path: its producer's EmitFunc routes it and
// writes it to every sink, in registration order, in the producer's
// goroutine, and returns only when every sink has answered — so a
// push's 204 and a collection cycle's nil both mean a sink stored the
// batch (the local store, in every default deployment). Nothing
// is queued, so nothing can overflow or be left behind at shutdown;
// each stage's counters still account for every point exactly
// (received = written + dropped).
package ingest

import (
	"context"

	"monster/internal/tsdb"
)

// EmitFunc is a receiver's entry point into the pipeline. It returns
// once the batch is routed and every sink has written it, and fails
// only when no sink stored it (errors.Join of every sink's error);
// a sink that failed beside one that succeeded is counted in its own
// stats instead.
type EmitFunc func(points []tsdb.Point) error

// Receiver produces point batches into the pipeline.
//
// Bind is called exactly once, at registration, handing the receiver
// its emit function; emissions may begin immediately after. Run is
// started in its own goroutine by Pipeline.Run and drives active
// collection (the scrape loop) until ctx is done. Externally-driven
// receivers — an HTTP handler fed by clients, or a poller stepped by
// the simulation loop — return from Run immediately; their emissions
// flow through the bound emit whenever the external driver produces
// them, whether or not Run is active.
type Receiver interface {
	Name() string
	Bind(emit EmitFunc)
	Run(ctx context.Context) error
}

// Sink consumes routed point batches. Implementations must be safe for
// concurrent Write calls: every producer (a push handler, the scrape
// loop, the collection cycle) writes from its own goroutine.
type Sink interface {
	Name() string
	Write(points []tsdb.Point) error
	Stats() SinkStats
}

// ExtraStats is optionally implemented by receivers and sinks to
// surface implementation-specific counters (parse errors, scrape
// failures, HTTP requests) in the pipeline stats snapshot.
type ExtraStats interface {
	ExtraStats() map[string]int64
}
