package ingest

import (
	"sync"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// TSDBOptions configures a TSDBSink.
type TSDBOptions struct {
	// BatchSize is the storage write batch size. Zero means 10000 (the
	// paper's "ideal batch size for InfluxDB"). Negative disables
	// batching (one write per point — the ablation baseline).
	BatchSize int
	// Clock times writes. Nil means the real clock.
	Clock clock.Clock
}

// TSDBSink writes routed batches into the local storage engine. It
// owns the deployment's one batched-write loop and its
// Batches/WriteTime/WriteWait accounting, including the
// partial-progress contract: when a mid-loop batch fails, the batches
// that DID land (and the time spent) are recorded before the error
// surfaces.
type TSDBSink struct {
	db    *tsdb.DB
	batch int
	clk   clock.Clock

	mu sync.Mutex
	st SinkStats
}

// NewTSDBSink builds the local storage sink.
func NewTSDBSink(db *tsdb.DB, opts TSDBOptions) *TSDBSink {
	if opts.BatchSize == 0 {
		opts.BatchSize = 10000
	}
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	return &TSDBSink{db: db, batch: opts.BatchSize, clk: opts.Clock}
}

// Name implements Sink.
func (s *TSDBSink) Name() string { return "tsdb" }

// Write implements Sink: points land in batches of BatchSize ("Metrics
// Collector then writes these data points into the database in
// batches"); a negative batch size degenerates to per-point writes.
func (s *TSDBSink) Write(points []tsdb.Point) error {
	if len(points) == 0 {
		return nil
	}
	size := s.batch
	if size < 0 {
		size = 1
	}
	waitBefore := s.db.Stats().WriteWaitNs
	start := s.clk.Now()
	batches := int64(0)
	written := int64(0)
	var werr error
	for off := 0; off < len(points); off += size {
		end := off + size
		if end > len(points) {
			end = len(points)
		}
		if err := s.db.WritePoints(points[off:end]); err != nil {
			// Record the batches that DID land before surfacing the
			// error: returning mid-loop would leave Batches/WriteTime
			// blind to the partial write, and operators debugging a
			// failure need the stats to reflect what actually happened.
			werr = err
			break
		}
		batches++
		written += int64(end - off)
	}
	elapsed := s.clk.Now().Sub(start)
	wait := time.Duration(s.db.Stats().WriteWaitNs - waitBefore)
	s.mu.Lock()
	s.st.Batches += batches
	s.st.PointsWritten += written
	s.st.WriteTime += elapsed
	s.st.WriteWait += wait
	s.st.LastWrite = elapsed
	if werr != nil {
		s.st.WriteErrors++
	}
	s.mu.Unlock()
	return werr
}

// Stats implements Sink.
func (s *TSDBSink) Stats() SinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}
