package bench

import (
	"context"
	"fmt"
	"time"

	"monster/internal/ingest"
)

// cycleSample is one collection cycle. The layer durations are only
// filled in a traced cycle: they come from the stats the layers
// already export, read right after the cycle.
type cycleSample struct {
	ms     float64 // wall time of AdvanceCollecting (from the due time in an open loop)
	lateMs float64 // open loop: how long after its due time the cycle started
	sweep  time.Duration
	coll   time.Duration // collector's whole cycle: sweep + preprocess + enqueue
	write  time.Duration // local sink's write of this cycle's batch
}

// cycle advances the deployment by one collection interval. due is the
// instant the cycle was owed (open loop) or zero (closed loop: timed
// from its own start).
func (r *run) cycle(op int, due time.Time, rec *Recorder) (cycleSample, error) {
	sys := r.dp.Sys
	t0 := clk.Now()
	err := sys.AdvanceCollecting(context.Background(), Cadence*time.Second)
	t1 := clk.Now()
	var s cycleSample
	if due.IsZero() {
		due = t0
	}
	s.ms = float64(t1.Sub(due)) / 1e6
	s.lateMs = float64(t0.Sub(due)) / 1e6
	if err != nil || rec == nil {
		return s, err
	}
	cs := sys.Collector.Stats()
	s.sweep, s.coll, s.write = cs.LastSweep, cs.LastCycle, sys.Local.Stats().LastWrite
	// The cycle's children, rebuilt from those durations and laid end
	// to end; what is left is core's own share: substrate stepping,
	// the flush hand-off, rollups, cold spill, alert evaluation.
	root := rec.Add("core.cycle", op, -1, t0, t1)
	sweepEnd := t0.Add(s.sweep)
	collEnd := t0.Add(s.coll)
	rec.Add("redfish.sweep", op, root, t0, sweepEnd)
	rec.Add("collector.preprocess", op, root, sweepEnd, collEnd)
	rec.Add("ingest.sink_write", op, root, collEnd, collEnd.Add(s.write))
	return s, nil
}

// Checkpoints are taken every checkpointEvery cycles, and once more
// replayCycles before the end, so that the restart at the end of the
// run always replays the same number of cycles.
const (
	checkpointEvery = 60
	replayCycles    = 20
)

// measureCollect is the measured window of the collect workload: a
// closed loop of collection cycles with periodic checkpoints.
func (r *run) measureCollect() error {
	sys := r.dp.Sys
	b := r.window()
	if b.ops > replayCycles {
		b.ops -= replayCycles // the tail's cycles count too
	}
	col0, pipe0 := sys.Collector.Stats(), sys.Ingest.Stats()

	var plainMs, tracedMs, ckptMs []float64
	var samples []cycleSample
	var wall time.Duration
	n := 0
	checkpoint := func() error {
		t0 := clk.Now()
		if err := sys.Checkpoint(); err != nil {
			return fmt.Errorf("bench: checkpoint: %w", err)
		}
		d := since(t0)
		wall += d
		ckptMs = append(ckptMs, float64(d)/1e6)
		return nil
	}
	one := func(periodic bool) error {
		// In a traced run every second cycle is traced: the stored data
		// grows as the run goes on, so only neighbours compare.
		var rec *Recorder
		if r.opts.Trace && n%2 == 1 {
			rec = r.rec
		}
		s, err := r.cycle(n, time.Time{}, rec)
		n++
		wall += time.Duration(s.ms * 1e6)
		if !r.attempt(err) {
			return nil
		}
		if rec != nil {
			tracedMs = append(tracedMs, s.ms)
			samples = append(samples, s)
		} else {
			plainMs = append(plainMs, s.ms)
		}
		if periodic && n%checkpointEvery == 0 {
			return checkpoint()
		}
		return nil
	}
	for !b.done(n) {
		if err := one(true); err != nil {
			return err
		}
	}
	// The tail: one more checkpoint, then a fixed number of cycles
	// that only the WAL holds when the run "crashes".
	if err := checkpoint(); err != nil {
		return err
	}
	walPoints := sys.DB.Stats().PointsWritten
	for i := 0; i < replayCycles; i++ {
		if err := one(false); err != nil {
			return err
		}
	}
	if w := sys.DB.WALStats(); sys.DB.Stats().PointsWritten > walPoints {
		r.set("tsdb.wal_bytes_per_point", float64(w.Bytes)/float64(sys.DB.Stats().PointsWritten-walPoints))
	}

	all := append(append([]float64(nil), plainMs...), tracedMs...)
	r.setOps(all, wall)
	col1, pipe1 := sys.Collector.Stats(), sys.Ingest.Stats()
	cycles := float64(col1.Cycles - col0.Cycles)
	points := float64(col1.PointsWritten - col0.PointsWritten)
	if len(all) > 0 {
		s := sorted(all)
		r.set("core.cycle_ms_max", s[len(s)-1])
		if p, ok := HighestSupported(len(s)); ok {
			r.set("core.cycle_tail_percentile", p)
			r.set("core.cycle_ms_tail", Percentile(s, p))
		}
		r.set("ingest.points_per_s", points/wall.Seconds())
	}
	if cycles > 0 {
		r.set("collector.points_per_cycle", points/cycles)
		r.set("redfish.requests_per_cycle", float64(col1.BMCRequests-col0.BMCRequests)/cycles)
	}
	r.set("redfish.failures", float64(col1.BMCFailures-col0.BMCFailures))
	if len(ckptMs) > 0 {
		s := sorted(ckptMs)
		r.set("tsdb.checkpoint_ms_p50", Percentile(s, 50))
		r.set("tsdb.checkpoint_ms_max", s[len(s)-1])
	}
	r.accounting(pipe0, pipe1)
	if r.opts.Trace {
		r.cycleTraceMetrics(samples, plainMs, tracedMs)
		return r.probes()
	}
	return nil
}

// accounting requires that every point a receiver handed to the
// pipeline during the window was either written by the local sink or
// counted as dropped, and that none was dropped.
func (r *run) accounting(before, after ingest.PipelineStats) {
	var received, dropped, written int64
	for i, rs := range after.Receivers {
		received += rs.PointsReceived - before.Receivers[i].PointsReceived
		dropped += rs.PointsDropped - before.Receivers[i].PointsDropped
	}
	dropped += after.Router.PointsDropped - before.Router.PointsDropped
	for i, ss := range after.Sinks {
		dropped += ss.PointsDropped - before.Sinks[i].PointsDropped
		written += ss.PointsWritten - before.Sinks[i].PointsWritten
	}
	r.set("ingest.points_dropped", float64(dropped))
	ok := received == written+dropped
	if ok {
		r.set("ingest.accounting_ok", 1)
	} else {
		r.attempt(fmt.Errorf("ingest accounting: received %d != written %d + dropped %d", received, written, dropped))
	}
	if dropped != 0 {
		r.attempt(fmt.Errorf("ingest accounting: %d points dropped under the block policy", dropped))
	}
}

// cycleLayerMetrics folds traced cycles into the per-layer medians.
func (r *run) cycleLayerMetrics(samples []cycleSample) {
	if len(samples) == 0 {
		return
	}
	var sweep, pre, write, maint []float64
	for _, s := range samples {
		sweep = append(sweep, float64(s.sweep)/1e6)
		pre = append(pre, float64(s.coll-s.sweep)/1e6)
		write = append(write, float64(s.write)/1e6)
		maint = append(maint, s.ms-s.lateMs-float64(s.coll+s.write)/1e6)
	}
	r.set("redfish.sweep_ms", Median(sweep))
	r.set("collector.preprocess_ms", Median(pre))
	r.set("ingest.sink_write_ms", Median(write))
	r.set("core.maintenance_ms", Median(maint))
}

// cycleTraceMetrics adds the share table of the median cycle and what
// tracing cost.
func (r *run) cycleTraceMetrics(samples []cycleSample, plainMs, tracedMs []float64) {
	r.cycleLayerMetrics(samples)
	if len(tracedMs) == 0 || len(plainMs) == 0 {
		return
	}
	opMs := Median(tracedMs)
	r.res.Shares = Shares(r.rec.Spans, opMs)
	r.set("trace.accounted_pct", 100*(1-spanMedians(r.res.Shares)["unaccounted"]/opMs))
	r.set("trace.overhead_pct", 100*(opMs/Median(plainMs)-1))
}
