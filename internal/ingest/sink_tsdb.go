package ingest

import (
	"errors"
	"sync"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// writeBatch is the storage write batch size: the paper's "ideal
// batch size for InfluxDB".
const writeBatch = 10000

// TSDBSink writes routed batches into the local storage engine. It
// owns the deployment's one batched-write loop and its
// Batches/WriteTime/WriteWait accounting, including the
// partial-progress contract: when a mid-loop batch fails, the batches
// that DID land (and the time spent) are recorded before the error
// surfaces.
type TSDBSink struct {
	db    *tsdb.DB
	batch int         // points per WritePoints call; tests shrink it
	clk   clock.Clock // times writes; tests substitute a simulated one

	mu sync.Mutex
	st SinkStats
}

// NewTSDBSink builds the local storage sink.
func NewTSDBSink(db *tsdb.DB) *TSDBSink {
	return &TSDBSink{db: db, batch: writeBatch, clk: clock.NewReal()}
}

// Name implements Sink.
func (s *TSDBSink) Name() string { return "tsdb" }

// partialError is a failed sink write that stored its first n points
// before failing, so the pipeline charges only the rest as dropped.
type partialError struct {
	n   int
	err error
}

func (e *partialError) Error() string { return e.err.Error() }
func (e *partialError) Unwrap() error { return e.err }

// stored is how many points a failed sink write stored anyway.
func stored(err error) int {
	var pe *partialError
	if errors.As(err, &pe) {
		return pe.n
	}
	return 0
}

// Write implements Sink: points land in batches of writeBatch
// ("Metrics Collector then writes these data points into the database
// in batches"). A failure after some batches landed returns a
// partialError carrying how many did.
func (s *TSDBSink) Write(points []tsdb.Point) error {
	if len(points) == 0 {
		return nil
	}
	waitBefore := s.db.Stats().WriteWaitNs
	start := s.clk.Now()
	batches := int64(0)
	written := 0
	var werr error
	for off := 0; off < len(points); off += s.batch {
		end := min(off+s.batch, len(points))
		if err := s.db.WritePoints(points[off:end]); err != nil {
			// Record the batches that DID land before surfacing the
			// error: returning mid-loop would leave Batches/WriteTime
			// blind to the partial write, and operators debugging a
			// failure need the stats to reflect what actually happened.
			werr = err
			if written > 0 {
				werr = &partialError{n: written, err: err}
			}
			break
		}
		batches++
		written += end - off
	}
	elapsed := s.clk.Now().Sub(start)
	wait := time.Duration(s.db.Stats().WriteWaitNs - waitBefore)
	s.mu.Lock()
	s.st.Batches += batches
	s.st.PointsWritten += int64(written)
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
