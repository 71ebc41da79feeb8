package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"monster/internal/alerting"
	"monster/internal/core"
	"monster/internal/tsdb"
)

// Deployment is the reference deployment every workload runs against:
// monsterd's README configuration, built in-process. Storage is
// durable (WAL with the default 1 s interval fsync, cold tier with the
// default 1 h age), the two-level Power rollup chain and the default
// alert rules are on, the ingest pipeline runs asynchronously, and
// the builder is served over a real loopback HTTP listener behind
// monsterd's mux.
type Deployment struct {
	Sys     *core.System
	Data    Dataset
	NodeIDs []string // NodeId tag values in node-index order
	WALDir  string
	ColdDir string
	URL     string // http://127.0.0.1:port

	srv        *http.Server
	stopIngest context.CancelFunc
	ingestDone chan error
}

// Rollups is the tier chain of the reference deployment:
// Power.Reading:max@5m feeding Power_max_300s.Reading:max@1h.
func Rollups() []tsdb.RollupSpec {
	return []tsdb.RollupSpec{
		{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300},
		{Source: "Power_max_300s", Field: "Reading", Aggregate: "max", Interval: 3600},
	}
}

// Deploy builds the reference deployment with its storage under dir
// and starts the ingest workers and the HTTP listener. The caller owns
// dir and must call Close.
func Deploy(dir string, d Dataset) (*Deployment, error) {
	walDir, coldDir := filepath.Join(dir, "wal"), filepath.Join(dir, "cold")
	sys, err := core.NewSystem(core.Config{
		Nodes:             d.Nodes,
		Seed:              d.Seed,
		Start:             d.Start,
		ConcurrentQueries: true,
		WALDir:            walDir,
		ColdDir:           coldDir,
		Rollups:           Rollups(),
		AlertRules:        alerting.DefaultRules(),
	})
	if err != nil {
		return nil, fmt.Errorf("bench: deploy: %w", err)
	}
	dp := &Deployment{Sys: sys, Data: d, WALDir: walDir, ColdDir: coldDir}
	dp.NodeIDs = make([]string, sys.Nodes.Len())
	for i := range dp.NodeIDs {
		dp.NodeIDs[i] = sys.Nodes.Node(i).Addr()
	}

	ctx, cancel := context.WithCancel(context.Background())
	dp.stopIngest = cancel
	dp.ingestDone = make(chan error, 1)
	go func() { dp.ingestDone <- sys.RunIngest(ctx) }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dp.Close()
		return nil, fmt.Errorf("bench: deploy: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/ingest/write", sys.Push)
	mux.Handle("/", sys.BuilderAPI)
	dp.srv = &http.Server{Handler: mux}
	dp.URL = "http://" + ln.Addr().String()
	go func() { _ = dp.srv.Serve(ln) }() // returns ErrServerClosed once Close stops it

	// AdvanceCollecting only hands cycles to the queues once the stage
	// workers are up; wait so the first timed cycle is an async one.
	for !sys.Ingest.Stats().Running {
		select {
		case err := <-dp.ingestDone:
			dp.ingestDone <- err
			dp.Close()
			return nil, fmt.Errorf("bench: deploy: ingest pipeline stopped: %w", err)
		case <-clk.After(time.Millisecond):
		}
	}
	return dp, nil
}

// Load writes the dataset the way core does it for live data: one
// batch per simulated minute through the local sink, a cold spill of
// everything older than an hour once per simulated hour, and one
// checkpoint at the end. corrupt is the oracle test hook (nil outside
// tests).
func (dp *Deployment) Load(corrupt func(step int, batch []tsdb.Point)) error {
	st := dp.Data.NewStream(dp.NodeIDs)
	st.Corrupt = corrupt
	for step := 1; ; step++ {
		batch, t := st.Next()
		if batch == nil {
			break
		}
		if err := dp.Sys.Local.Write(batch); err != nil {
			return fmt.Errorf("bench: load: %w", err)
		}
		if step%60 == 0 {
			if _, err := dp.Sys.DB.SpillCold(t - 3600); err != nil {
				return fmt.Errorf("bench: load: spill: %w", err)
			}
		}
	}
	if err := dp.Sys.Checkpoint(); err != nil {
		return fmt.Errorf("bench: load: %w", err)
	}
	return nil
}

// Close stops the listener and the ingest workers and waits for both.
// The WAL is left as it is: workloads that measure recovery close it
// themselves.
func (dp *Deployment) Close() {
	if dp.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := dp.srv.Shutdown(ctx); err != nil {
			_ = dp.srv.Close() // the graceful stop already failed; this is the fallback
		}
		cancel()
	}
	dp.stopIngest()
	if err := <-dp.ingestDone; err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "bench: ingest pipeline:", err) // standard output ends with the result line
	}
}
