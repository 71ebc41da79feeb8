package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"monster/internal/alerting"
	"monster/internal/ingest"
	"monster/internal/tsdb"
)

// probeCycles is how many collection cycles the isolated probes
// capture and replay.
const probeCycles = 20

// nullSink swallows batches: the far end of the router probe.
type nullSink struct{ st ingest.SinkStats }

func (s *nullSink) Name() string { return "null" }
func (s *nullSink) Write(points []tsdb.Point) error {
	s.st.PointsWritten += int64(len(points))
	s.st.Batches++
	return nil
}
func (s *nullSink) Stats() ingest.SinkStats { return s.st }

// probes times layers on their own, after the measured window of a
// traced collect run: the cycle's span children say how long a layer
// took inside a cycle, a probe says how long the same work takes with
// nothing around it. They run last because redirecting the collector's
// output cannot be undone from outside.
func (r *run) probes() error {
	sys := r.dp.Sys
	ctx := context.Background()

	// Alert evaluation: a fresh engine (so the deployment's own rule
	// state is untouched) over the live database, before the capture
	// below moves the simulation clock past the last stored sample.
	eng, err := alerting.New(sys.DB, alerting.DefaultRules())
	if err != nil {
		return fmt.Errorf("bench: probe: %w", err)
	}
	var eval []float64
	for i := 0; i < probeCycles; i++ {
		t0 := clk.Now()
		if _, err := eng.Evaluate(sys.Now(), 3*Cadence*time.Second); err != nil {
			return fmt.Errorf("bench: probe: evaluate: %w", err)
		}
		eval = append(eval, float64(since(t0))/1e6)
	}
	r.set("alerting.evaluate_ms", Median(eval))
	// Substrate and collector alone: the collector's output is captured
	// instead of entering the pipeline.
	var batches [][]tsdb.Point
	sys.Collector.SetEmit(func(points []tsdb.Point) error {
		batches = append(batches, append([]tsdb.Point(nil), points...))
		return nil
	})
	var substrate, noemit []float64
	for i := 0; i < probeCycles; i++ {
		t0 := clk.Now()
		sys.Advance(Cadence * time.Second)
		t1 := clk.Now()
		if _, err := sys.Collector.CollectOnce(ctx, sys.Now()); err != nil {
			return fmt.Errorf("bench: probe: collect: %w", err)
		}
		substrate = append(substrate, float64(t1.Sub(t0))/1e6)
		noemit = append(noemit, float64(since(t1))/1e6)
	}
	r.set("core.substrate_ms", Median(substrate))
	r.set("collector.cycle_noemit_ms", Median(noemit))

	// Router: the captured batches through a fresh, unstarted pipeline
	// (inline processing) into a sink that does nothing.
	pipe, err := ingest.New(ingest.Options{})
	if err != nil {
		return fmt.Errorf("bench: probe: pipeline: %w", err)
	}
	pipe.AddSink(&nullSink{})
	emit := pipe.Source("probe")
	perK := func(write func([]tsdb.Point) error) (float64, error) {
		var d time.Duration
		var n int
		for i, b := range batches {
			t0 := clk.Now()
			if err := write(b); err != nil {
				return 0, err
			}
			if i > 0 { // the first batch creates every series: set-up, not steady state
				d += since(t0)
				n += len(b)
			}
		}
		return float64(d.Nanoseconds()) / 1e3 / (float64(n) / 1e3), nil // µs per thousand points
	}
	v, err := perK(emit)
	if err != nil {
		return fmt.Errorf("bench: probe: route: %w", err)
	}
	r.set("ingest.route_us_per_kpoint", v)

	// Storage write path, without and with the write-ahead log.
	if v, err = perK(tsdb.Open(tsdb.Options{}).WritePoints); err != nil {
		return fmt.Errorf("bench: probe: memory write: %w", err)
	}
	r.set("tsdb.write_us_per_kpoint_mem", v)
	walDir := filepath.Join(filepath.Dir(r.dp.WALDir), "probe-wal")
	defer os.RemoveAll(walDir)
	durable, _, err := tsdb.OpenDurable(tsdb.Options{}, tsdb.WALOptions{Dir: walDir})
	if err != nil {
		return fmt.Errorf("bench: probe: %w", err)
	}
	v, err = perK(durable.WritePoints)
	if cerr := durable.CloseWAL(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("bench: probe: durable write: %w", err)
	}
	r.set("tsdb.write_us_per_kpoint_wal", v)

	r.splitCoreShare()
	return nil
}

// splitCoreShare carves the two probed activities out of the cycle
// span's self time, so the share table names what core's own part is
// made of; what stays under core.cycle is the flush hand-off, the
// rollup driver and the cold spill.
func (r *run) splitCoreShare() {
	for i := range r.res.Shares {
		core := r.res.Shares[i]
		if core.Layer != "core.cycle" || core.Share <= 0 {
			continue
		}
		opMs := core.Ms / core.Share
		for _, probe := range []struct{ layer, metric string }{
			{"core.substrate (probe)", "core.substrate_ms"},
			{"alerting.evaluate (probe)", "alerting.evaluate_ms"},
		} {
			ms := min(r.res.Metrics[probe.metric], core.Ms)
			core.Ms -= ms
			r.res.Shares = append(r.res.Shares, LayerShare{Layer: probe.layer, Ms: ms, Share: ms / opMs})
		}
		core.Share = core.Ms / opMs
		r.res.Shares[i] = core
		return
	}
}
