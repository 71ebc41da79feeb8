package ingest

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"monster/internal/tsdb"
)

// gatedSink blocks every Write until the test sends one token on
// release, signalling entry — how the tests hold a write in progress
// and watch what its producer does meanwhile.
type gatedSink struct {
	entered chan struct{}
	release chan struct{}

	mu sync.Mutex
	st SinkStats
}

func newGatedSink() *gatedSink {
	return &gatedSink{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gatedSink) Name() string { return "gated" }

func (g *gatedSink) Write(points []tsdb.Point) error {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	g.st.Batches++
	g.st.PointsWritten += int64(len(points))
	return nil
}

func (g *gatedSink) Stats() SinkStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.st
}

// startRun runs p until the returned stop is called, which waits for
// Run to return.
func startRun(t *testing.T, p *Pipeline) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = p.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !p.Stats().Running {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never started")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { cancel(); <-done }
}

func batchOf(n int, t int64) []tsdb.Point {
	pts := make([]tsdb.Point, n)
	for i := range pts {
		pts[i] = validPoint(t + int64(i))
	}
	return pts
}

// conserve asserts the pipeline's exact accounting invariant: every
// received point is either written or charged as dropped somewhere.
func conserve(t *testing.T, st PipelineStats) {
	t.Helper()
	var received, written, dropped int64
	for _, r := range st.Receivers {
		received += r.PointsReceived
		dropped += r.PointsDropped
	}
	for _, s := range st.Sinks {
		written += s.PointsWritten
		dropped += s.PointsDropped
	}
	if received != written+dropped {
		t.Fatalf("conservation broken: received %d != written %d + dropped %d\n%+v",
			received, written, dropped, st)
	}
}

func TestPipelineInlineMode(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(NewTSDBSink(db))
	emit := p.Source("test")

	if err := emit(batchOf(3, 100)); err != nil {
		t.Fatal(err)
	}
	if got := db.Disk().Points; got != 3 {
		t.Fatalf("db has %d points, want 3 (written before emit returns)", got)
	}
	st := p.Stats()
	if st.Running {
		t.Fatal("pipeline reports running without Run")
	}
	if st.Receivers[0].PointsReceived != 3 || st.Sinks[0].PointsWritten != 3 {
		t.Fatalf("stats = %+v", st)
	}
	conserve(t, st)
}

// failSink always fails; with no other sink beside it the emit must
// surface its error to the producer (a write error fails the cycle).
type failSink struct {
	mu sync.Mutex
	st SinkStats
}

func (f *failSink) Name() string { return "fail" }
func (f *failSink) Write(points []tsdb.Point) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.WriteErrors++
	return errors.New("sink down")
}
func (f *failSink) Stats() SinkStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func TestPipelineInlineSurfacesSinkError(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(&failSink{})
	emit := p.Source("test")
	if err := emit(batchOf(1, 1)); err == nil {
		t.Fatal("emit swallowed the sink error")
	}
}

// TestPipelineAcknowledgesAfterWrite: with Run active, neither an emit
// nor a push POST returns before the sink's Write has returned — a
// nil or a 204 means stored, not queued.
func TestPipelineAcknowledgesAfterWrite(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := newGatedSink()
	p.AddSink(sink)
	emit := p.Source("cycle")
	push := NewPushReceiver()
	p.AddReceiver(push)
	srv := httptest.NewServer(push)
	defer srv.Close()
	defer startRun(t, p)()

	// held waits for the write to start, checks that its producer has
	// not returned meanwhile, then lets the write finish.
	held := func(what string, returned <-chan struct{}) {
		t.Helper()
		select {
		case <-sink.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: sink never entered Write", what)
		}
		select {
		case <-returned:
			t.Errorf("%s returned while its write was still in progress", what)
		case <-time.After(50 * time.Millisecond):
		}
		sink.release <- struct{}{}
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never returned after its write did", what)
		}
	}

	emitted := make(chan struct{})
	var emitErr error
	go func() { defer close(emitted); emitErr = emit(batchOf(2, 0)) }()
	held("emit", emitted)
	if emitErr != nil {
		t.Fatal(emitErr)
	}

	answered := make(chan struct{})
	var status int
	go func() {
		defer close(answered)
		resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("Power,NodeId=n1 Reading=1 100\n"))
		if err != nil {
			return
		}
		resp.Body.Close()
		status = resp.StatusCode
	}()
	held("push", answered)
	if status != http.StatusNoContent {
		t.Fatalf("push status = %d, want 204", status)
	}
	if w := sink.Stats().PointsWritten; w != 3 {
		t.Fatalf("points_written = %d, want 3", w)
	}
}

// TestPipelineConcurrentProducersLoseNothing: producers emit from many
// goroutines while Run is active and then stopped under them. Every
// acknowledged point is stored, nothing is dropped, and the accounting
// conserves.
func TestPipelineConcurrentProducersLoseNothing(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(NewTSDBSink(db))
	const producers, batches, size = 8, 40, 3
	emits := make([]EmitFunc, producers)
	for i := range emits {
		emits[i] = p.Source("producer")
	}
	stop := startRun(t, p)

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked int64
	)
	for i, emit := range emits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := emit(batchOf(size, int64(i*batches*size+b*size))); err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				acked += size
				mu.Unlock()
			}
		}()
	}
	stop() // Run stops while producers are still emitting
	wg.Wait()

	st := p.Stats()
	conserve(t, st)
	if st.Running {
		t.Fatal("pipeline reports running after Run returned")
	}
	var dropped int64
	for _, r := range st.Receivers {
		dropped += r.PointsDropped
	}
	if dropped += st.Sinks[0].PointsDropped; dropped != 0 {
		t.Fatalf("dropped %d points", dropped)
	}
	if acked != producers*batches*size {
		t.Fatalf("acknowledged %d points, want %d", acked, producers*batches*size)
	}
	if w := st.Sinks[0].PointsWritten; w != acked {
		t.Fatalf("points_written = %d, acknowledged %d", w, acked)
	}
	if got := db.Disk().Points; got != acked {
		t.Fatalf("db holds %d points, acknowledged %d", got, acked)
	}
}

// TestPipelineBlockPolicyLosesNothing: a sink held inside Write stalls
// every producer writing to it — backpressure, not eviction — and
// after release every point has landed, with zero drops anywhere.
func TestPipelineBlockPolicyLosesNothing(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := newGatedSink()
	p.AddSink(sink)
	const producers = 5
	emits := make([]EmitFunc, producers)
	for i := range emits {
		emits[i] = p.Source("steady")
	}
	defer startRun(t, p)()

	returned := make(chan error, producers)
	for i, emit := range emits {
		go func() { returned <- emit(batchOf(2, int64(100*i))) }()
	}
	for i := 0; i < producers; i++ {
		select {
		case <-sink.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d writes reached the sink", i, producers)
		}
	}
	select {
	case <-returned:
		t.Fatal("emit returned while the sink was held")
	case <-time.After(200 * time.Millisecond):
	}

	close(sink.release)
	for i := 0; i < producers; i++ {
		select {
		case err := <-returned:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked emit never resumed after release")
		}
	}

	st := p.Stats()
	conserve(t, st)
	dropped := st.Sinks[0].PointsDropped
	for _, r := range st.Receivers {
		dropped += r.PointsDropped
	}
	if dropped != 0 {
		t.Fatalf("dropped %d points", dropped)
	}
	if st.Sinks[0].PointsWritten != 2*producers {
		t.Fatalf("points_written = %d, want all %d", st.Sinks[0].PointsWritten, 2*producers)
	}
}

// TestPipelineShutdownCountsDrainedBatches: batches whose writes are
// still in progress when Run stops finish and are counted, keeping
// conservation exact across shutdown.
func TestPipelineShutdownCountsDrainedBatches(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := newGatedSink()
	p.AddSink(sink)
	emit := p.Source("cutoff")
	stop := startRun(t, p)

	const batches = 4
	returned := make(chan error, batches)
	for i := 0; i < batches; i++ {
		go func() { returned <- emit(batchOf(i+1, int64(10*i))) }()
	}
	for i := 0; i < batches; i++ {
		select {
		case <-sink.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d writes reached the sink", i, batches)
		}
	}
	stop() // Run returns with every write still held in the sink
	if p.Stats().Running {
		t.Fatal("pipeline reports running after Run returned")
	}
	close(sink.release)
	for i := 0; i < batches; i++ {
		select {
		case err := <-returned:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("held emit never returned after release")
		}
	}

	st := p.Stats()
	conserve(t, st)
	if st.Sinks[0].PointsWritten != 1+2+3+4 {
		t.Fatalf("points_written = %d, want 10", st.Sinks[0].PointsWritten)
	}
}

// TestPipelineSinkFailures pins the error rule: an emit fails only
// when no sink stored the batch, and every failed write is charged to
// its sink as dropped points.
func TestPipelineSinkFailures(t *testing.T) {
	// A working local sink beside a failing one: the emit succeeds and
	// the failure is counted.
	db := tsdb.Open(tsdb.Options{})
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	fail := &failSink{}
	p.AddSink(NewTSDBSink(db))
	p.AddSink(fail)
	if err := p.Source("test")(batchOf(4, 0)); err != nil {
		t.Fatalf("emit failed although the local sink stored the batch: %v", err)
	}
	st := p.Stats()
	if st.Sinks[0].PointsWritten != 4 || st.Sinks[0].PointsDropped != 0 {
		t.Fatalf("local sink = %+v", st.Sinks[0])
	}
	if st.Sinks[1].PointsDropped != 4 || fail.Stats().WriteErrors != 1 {
		t.Fatalf("failing sink = %+v", st.Sinks[1])
	}

	// Every sink failing: the emit fails with each sink's error.
	p, err = New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(&failSink{})
	p.AddSink(&failSink{})
	err = p.Source("test")(batchOf(2, 0))
	if err == nil || strings.Count(err.Error(), "sink down") != 2 {
		t.Fatalf("emit error = %v, want both sinks' errors", err)
	}
	for i, s := range p.Stats().Sinks {
		if s.PointsDropped != 2 {
			t.Fatalf("sink %d dropped %d points, want 2", i, s.PointsDropped)
		}
	}

	// A write that stores some batches before failing charges only the
	// rest.
	p, err = New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := NewTSDBSink(tsdb.Open(tsdb.Options{}))
	local.batch = 1
	p.AddSink(local)
	if err := p.Source("test")([]tsdb.Point{validPoint(1), {Time: 2}}); err == nil {
		t.Fatal("invalid point accepted")
	}
	st = p.Stats()
	conserve(t, st)
	if st.Sinks[0].PointsWritten != 1 || st.Sinks[0].PointsDropped != 1 {
		t.Fatalf("partial write = %+v", st.Sinks[0])
	}

	// No sink at all: the emit is refused and charged to its receiver.
	p, err = New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Source("test")(batchOf(3, 0)); err == nil {
		t.Fatal("emit into a pipeline without sinks succeeded")
	}
	st = p.Stats()
	conserve(t, st)
	if st.Receivers[0].PointsDropped != 3 {
		t.Fatalf("receiver = %+v", st.Receivers[0])
	}
}

func TestPipelineRunTwiceFails(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() { close(started); _ = p.Run(ctx) }()
	<-started
	for !p.Stats().Running {
		time.Sleep(time.Millisecond)
	}
	if err := p.Run(ctx); err == nil {
		t.Fatal("second Run accepted")
	}
	cancel()
}
