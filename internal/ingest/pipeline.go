package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monster/internal/tsdb"
)

// Options configures a Pipeline.
type Options struct {
	// Rules is the router's declarative transformation chain, applied
	// in order to every point. Empty passes points through untouched.
	Rules []Rule
}

type receiverEntry struct {
	name    string
	run     Receiver   // nil for a Source, which has no loop of its own
	extra   ExtraStats // non-nil when the receiver reports extra counters
	points  atomic.Int64
	batches atomic.Int64
	dropped atomic.Int64 // points of emits refused because no sink is registered
	runErrs atomic.Int64
}

type sinkEntry struct {
	sink    Sink
	dropped atomic.Int64 // points a failed Write did not store
}

// Pipeline wires receivers through the router into sinks.
//
// Registration (AddReceiver, AddSink, Source) must complete before the
// first emission or Run call; after that the pipeline is safe for
// concurrent use from any number of producer goroutines.
type Pipeline struct {
	router    *router
	receivers []*receiverEntry
	sinks     []*sinkEntry
	running   atomic.Bool
}

// New builds a pipeline with the given router rules. It returns an
// error on a malformed rule.
func New(opts Options) (*Pipeline, error) {
	rt, err := newRouter(opts.Rules)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &Pipeline{router: rt}, nil
}

// Source registers a named in-process producer and returns its emit
// function — how the simulation loop's poll collector enters the
// pipeline without implementing Receiver.
func (p *Pipeline) Source(name string) EmitFunc {
	e := &receiverEntry{name: name}
	p.receivers = append(p.receivers, e)
	return func(points []tsdb.Point) error { return p.emit(e, points) }
}

// AddReceiver registers a receiver and binds its emit function.
// Pipeline.Run starts the receiver's Run loop.
func (p *Pipeline) AddReceiver(r Receiver) {
	e := &receiverEntry{name: r.Name(), run: r}
	if xs, ok := r.(ExtraStats); ok {
		e.extra = xs
	}
	p.receivers = append(p.receivers, e)
	r.Bind(func(points []tsdb.Point) error { return p.emit(e, points) })
}

// AddSink registers a sink. Sinks are written in registration order.
func (p *Pipeline) AddSink(s Sink) {
	p.sinks = append(p.sinks, &sinkEntry{sink: s})
}

// emit is the shared entry point behind every receiver's EmitFunc: it
// routes the batch and writes it to every sink in the caller's
// goroutine. A failed sink write is charged to that sink; the emit
// fails only when every sink failed, so a down forward peer never
// fails a producer whose local store took the batch.
func (p *Pipeline) emit(e *receiverEntry, points []tsdb.Point) error {
	if len(points) == 0 {
		return nil
	}
	e.points.Add(int64(len(points)))
	e.batches.Add(1)
	if len(p.sinks) == 0 {
		e.dropped.Add(int64(len(points)))
		return fmt.Errorf("ingest: %d points from %s refused: no sink registered", len(points), e.name)
	}
	routed := p.router.process(points)
	var errs []error
	for _, se := range p.sinks {
		if err := se.sink.Write(routed); err != nil {
			se.dropped.Add(int64(len(routed) - stored(err)))
			errs = append(errs, err)
		}
	}
	if len(errs) < len(p.sinks) {
		return nil
	}
	return errors.Join(errs...)
}

// Run runs every registered receiver's own loop (the scrape receiver
// polls its targets) until ctx is done, then returns ctx's error.
// Delivery does not depend on it: every emission is routed and written
// in its producer's goroutine whether or not Run is active.
func (p *Pipeline) Run(ctx context.Context) error {
	if !p.running.CompareAndSwap(false, true) {
		return fmt.Errorf("ingest: pipeline already running")
	}
	defer p.running.Store(false)

	var wg sync.WaitGroup
	for _, e := range p.receivers {
		if e.run == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.run.Run(ctx); err != nil && ctx.Err() == nil {
				e.runErrs.Add(1)
			}
		}()
	}
	<-ctx.Done()
	wg.Wait()
	return ctx.Err()
}

// ReceiverStatus is one receiver's counters in a stats snapshot.
type ReceiverStatus struct {
	Name           string           `json:"name"`
	PointsReceived int64            `json:"points_received"`
	Batches        int64            `json:"batches"`
	PointsDropped  int64            `json:"points_dropped"`
	RunErrors      int64            `json:"run_errors,omitempty"`
	Extra          map[string]int64 `json:"extra,omitempty"`
}

// RouterStatus is the router stage's counters.
type RouterStatus struct {
	Rules         int   `json:"rules"`
	RulesApplied  int64 `json:"rules_applied"`
	PointsIn      int64 `json:"points_in"`
	PointsOut     int64 `json:"points_out"`
	PointsDropped int64 `json:"points_dropped"`
	PointsDerived int64 `json:"points_derived"`
}

// SinkStats is the accounting a Sink reports for its own writes.
type SinkStats struct {
	PointsWritten int64         `json:"points_written"`
	Batches       int64         `json:"batches"`
	WriteErrors   int64         `json:"write_errors"`
	ForwardErrors int64         `json:"forward_errors"`
	WriteTime     time.Duration `json:"write_time_ns"`
	WriteWait     time.Duration `json:"write_wait_ns"`
	LastWrite     time.Duration `json:"last_write_ns"`
}

// SinkStatus merges a sink's own stats with the points the pipeline
// handed it that a failed write did not store.
type SinkStatus struct {
	Name          string           `json:"name"`
	PointsDropped int64            `json:"points_dropped"`
	Extra         map[string]int64 `json:"extra,omitempty"`
	SinkStats
}

// PipelineStats is the full per-stage snapshot surfaced under the
// "ingest" section of /v1/stats. Running reports whether Run is
// active.
type PipelineStats struct {
	Running   bool             `json:"running"`
	Receivers []ReceiverStatus `json:"receivers"`
	Router    RouterStatus     `json:"router"`
	Sinks     []SinkStatus     `json:"sinks"`
}

// Stats snapshots every stage's counters.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Running: p.running.Load(),
		Router: RouterStatus{
			Rules:         len(p.router.rules),
			RulesApplied:  p.router.rulesApplied.Load(),
			PointsIn:      p.router.pointsIn.Load(),
			PointsOut:     p.router.pointsOut.Load(),
			PointsDropped: p.router.pointsDropped.Load(),
			PointsDerived: p.router.derived.Load(),
		},
	}
	for _, e := range p.receivers {
		rs := ReceiverStatus{
			Name:           e.name,
			PointsReceived: e.points.Load(),
			Batches:        e.batches.Load(),
			PointsDropped:  e.dropped.Load(),
			RunErrors:      e.runErrs.Load(),
		}
		if e.extra != nil {
			rs.Extra = e.extra.ExtraStats()
		}
		st.Receivers = append(st.Receivers, rs)
	}
	for _, se := range p.sinks {
		ss := SinkStatus{
			Name:          se.sink.Name(),
			PointsDropped: se.dropped.Load(),
			SinkStats:     se.sink.Stats(),
		}
		if xs, ok := se.sink.(ExtraStats); ok {
			ss.Extra = xs.ExtraStats()
		}
		st.Sinks = append(st.Sinks, ss)
	}
	return st
}
