package ingest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// DefaultQueueBatches is the default capacity, in batches, of the
// router input queue and of each per-sink queue.
const DefaultQueueBatches = 64

// Options configures a Pipeline.
type Options struct {
	// Rules is the router's declarative transformation chain, applied
	// in order to every point. Empty passes points through untouched.
	Rules []Rule
	// QueueBatches bounds the router input queue and each sink queue,
	// in batches. Zero means DefaultQueueBatches.
	QueueBatches int
	// Overflow selects what a full bounded stage does: OverflowBlock
	// (backpressure, the default) or OverflowDropOldest.
	Overflow OverflowPolicy
	// Clock times sink writes and stamps default timestamps. Nil means
	// the real clock.
	Clock clock.Clock
}

func (o *Options) applyDefaults() {
	if o.QueueBatches == 0 {
		o.QueueBatches = DefaultQueueBatches
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
}

// batch is one unit of pipeline work: a point slice plus its origin
// (so queue evictions are charged to the receiver that produced the
// evicted data).
type batch struct {
	recv   *receiverEntry
	points []tsdb.Point
}

type receiverEntry struct {
	name     string
	extra    ExtraStats // non-nil when the receiver reports extra counters
	points   atomic.Int64
	batches  atomic.Int64
	dropped  atomic.Int64 // points lost to router-queue overflow/shutdown
	runErrs  atomic.Int64
	lastSize atomic.Int64
}

type sinkEntry struct {
	sink    Sink
	q       *queue
	dropped atomic.Int64 // points lost to sink-queue overflow/shutdown
}

// queue is one bounded stage boundary.
type queue struct {
	ch      chan batch
	policy  OverflowPolicy
	pending *atomic.Int64 // pipeline-wide outstanding work items
}

// put enqueues b under the queue's overflow policy. It reports whether
// the batch was admitted; a rejected batch (shutdown) is charged to
// onDrop. Under OverflowDropOldest, evicted batches are charged to
// their own origin via evict.
func (q *queue) put(ctx context.Context, b batch, onDrop func(batch), evict func(batch)) bool {
	q.pending.Add(1)
	if q.policy == OverflowDropOldest {
		for {
			if ctx.Err() != nil {
				q.pending.Add(-1)
				onDrop(b)
				return false
			}
			select {
			case q.ch <- b:
				return true
			default:
			}
			select {
			case old := <-q.ch:
				q.pending.Add(-1)
				evict(old)
			default:
				// A consumer drained the queue between the two selects;
				// retry the send.
			}
		}
	}
	select {
	case q.ch <- b:
		return true
	case <-ctx.Done():
		q.pending.Add(-1)
		onDrop(b)
		return false
	}
}

// drain empties the queue without processing, charging each queued
// batch to onDrop — the shutdown path.
func (q *queue) drain(onDrop func(batch)) {
	for {
		select {
		case b := <-q.ch:
			q.pending.Add(-1)
			onDrop(b)
		default:
			return
		}
	}
}

// Pipeline wires receivers through the router into sinks.
//
// Registration (AddReceiver, AddSink, Source) must complete before the
// first emission or Run call; after that the pipeline is safe for
// concurrent use from any number of producer goroutines.
type Pipeline struct {
	opts   Options
	router *router
	clk    clock.Clock

	receivers []*receiverEntry
	runnable  []Receiver
	sinks     []*sinkEntry

	in      *queue
	pending atomic.Int64 // queued or in-flight work items
	running atomic.Bool
	runCtx  atomic.Pointer[context.Context]
}

// New builds a pipeline with the given router rules. It returns an
// error on a malformed rule.
func New(opts Options) (*Pipeline, error) {
	opts.applyDefaults()
	rt, err := newRouter(opts.Rules)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	p := &Pipeline{opts: opts, router: rt, clk: opts.Clock}
	p.in = &queue{ch: make(chan batch, opts.QueueBatches), policy: opts.Overflow, pending: &p.pending}
	return p, nil
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
	e := &receiverEntry{name: r.Name()}
	if xs, ok := r.(ExtraStats); ok {
		e.extra = xs
	}
	p.receivers = append(p.receivers, e)
	p.runnable = append(p.runnable, r)
	r.Bind(func(points []tsdb.Point) error { return p.emit(e, points) })
}

// AddSink registers a sink with its own bounded queue.
func (p *Pipeline) AddSink(s Sink) {
	se := &sinkEntry{sink: s}
	se.q = &queue{ch: make(chan batch, p.opts.QueueBatches), policy: p.opts.Overflow, pending: &p.pending}
	p.sinks = append(p.sinks, se)
}

// emit is the shared entry point behind every receiver's EmitFunc.
func (p *Pipeline) emit(e *receiverEntry, points []tsdb.Point) error {
	if len(points) == 0 {
		return nil
	}
	e.points.Add(int64(len(points)))
	e.batches.Add(1)
	e.lastSize.Store(int64(len(points)))
	if p.running.Load() {
		if ctxp := p.runCtx.Load(); ctxp != nil {
			ctx := *ctxp
			p.in.put(ctx, batch{recv: e, points: points},
				func(b batch) { b.recv.dropped.Add(int64(len(b.points))) },
				func(b batch) { b.recv.dropped.Add(int64(len(b.points))) })
			return nil
		}
	}
	// Inline mode: route and deliver in the caller's goroutine. The
	// first sink failure is surfaced so the classic poll path keeps its
	// historical "write error fails the cycle" contract.
	routed := p.router.process(points)
	var first error
	for _, se := range p.sinks {
		if err := se.sink.Write(routed); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Run starts the stage workers — the router loop over the bounded
// input queue and one worker per sink queue — plus every registered
// receiver's Run loop, then blocks until ctx is done. Emissions while
// running are queued under the configured overflow policy instead of
// processed inline. Undrained batches at shutdown are counted as
// dropped at the stage that held them.
func (p *Pipeline) Run(ctx context.Context) error {
	if !p.running.CompareAndSwap(false, true) {
		return fmt.Errorf("ingest: pipeline already running")
	}
	p.runCtx.Store(&ctx)
	defer func() {
		p.running.Store(false)
		p.runCtx.Store(nil)
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.routerLoop(ctx)
	}()
	for _, se := range p.sinks {
		se := se
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.sinkLoop(ctx, se)
		}()
	}
	for _, r := range p.runnable {
		e := p.entryFor(r.Name())
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.Run(ctx); err != nil && ctx.Err() == nil && e != nil {
				e.runErrs.Add(1)
			}
		}()
	}
	<-ctx.Done()
	wg.Wait()
	return ctx.Err()
}

func (p *Pipeline) entryFor(name string) *receiverEntry {
	for _, e := range p.receivers {
		if e.name == name {
			return e
		}
	}
	return nil
}

func (p *Pipeline) routerLoop(ctx context.Context) {
	dropRecv := func(b batch) { b.recv.dropped.Add(int64(len(b.points))) }
	for {
		select {
		case <-ctx.Done():
			p.in.drain(dropRecv)
			return
		case b := <-p.in.ch:
			routed := p.router.process(b.points)
			for _, se := range p.sinks {
				se := se
				se.q.put(ctx, batch{recv: b.recv, points: routed},
					func(bb batch) { se.dropped.Add(int64(len(bb.points))) },
					func(bb batch) { se.dropped.Add(int64(len(bb.points))) })
			}
			// Decrement after the fan-out so Flush never observes an
			// empty pipeline between router dequeue and sink enqueue.
			p.pending.Add(-1)
		}
	}
}

func (p *Pipeline) sinkLoop(ctx context.Context, se *sinkEntry) {
	dropSink := func(b batch) { se.dropped.Add(int64(len(b.points))) }
	for {
		select {
		case <-ctx.Done():
			se.q.drain(dropSink)
			return
		case b := <-se.q.ch:
			// Write failures are counted by the sink itself (exactly,
			// per batch landed) — see TSDBSink/ForwardSink.
			_ = se.sink.Write(b.points)
			p.pending.Add(-1)
		}
	}
}

// Flush blocks until every queued batch has been routed and written
// (or dropped), or ctx is done. It is how tests and the forward demo
// wait for asynchronous deliveries.
func (p *Pipeline) Flush(ctx context.Context) error {
	for {
		if p.pending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.clk.After(time.Millisecond):
		}
	}
}

// Running reports whether the stage workers are live (emissions are
// queued) as opposed to inline processing.
func (p *Pipeline) Running() bool { return p.running.Load() }

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

// SinkStatus merges a sink's own stats with the pipeline's queue
// accounting for it.
type SinkStatus struct {
	Name          string           `json:"name"`
	PointsDropped int64            `json:"points_dropped"`
	QueueLength   int              `json:"queue_length"`
	Extra         map[string]int64 `json:"extra,omitempty"`
	SinkStats
}

// PipelineStats is the full per-stage snapshot surfaced under the
// "ingest" section of /v1/stats.
type PipelineStats struct {
	Running   bool             `json:"running"`
	Overflow  string           `json:"overflow"`
	Queue     int              `json:"queue_batches"`
	Receivers []ReceiverStatus `json:"receivers"`
	Router    RouterStatus     `json:"router"`
	Sinks     []SinkStatus     `json:"sinks"`
}

// Stats snapshots every stage's counters.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Running:  p.running.Load(),
		Overflow: p.opts.Overflow.String(),
		Queue:    p.opts.QueueBatches,
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
			QueueLength:   len(se.q.ch),
			SinkStats:     se.sink.Stats(),
		}
		if xs, ok := se.sink.(ExtraStats); ok {
			ss.Extra = xs.ExtraStats()
		}
		st.Sinks = append(st.Sinks, ss)
	}
	return st
}
