package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"monster/internal/alerting"
	"monster/internal/builder"
	"monster/internal/clock"
	"monster/internal/collector"
	"monster/internal/ingest"
	"monster/internal/scheduler"
	"monster/internal/simnode"
	"monster/internal/tsdb"
)

func TestNewAppliesDefaults(t *testing.T) {
	s := New(Config{})
	if s.Nodes.Len() != 64 {
		t.Fatalf("nodes = %d", s.Nodes.Len())
	}
	if s.Workload.Len() == 0 {
		t.Fatal("no workload generated")
	}
}

func TestAdvanceSchedulesWorkload(t *testing.T) {
	s := New(Config{Nodes: 16, Seed: 3})
	s.Advance(2 * time.Hour)
	st := s.QMaster.Stats()
	if st.Submitted == 0 || st.Dispatched == 0 {
		t.Fatalf("scheduler idle after 2 h: %+v", st)
	}
	if s.Now() != s.Config.Start.Add(2*time.Hour) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestAdvanceCollectingFillsDB(t *testing.T) {
	s := New(Config{Nodes: 8, Seed: 1})
	if err := s.AdvanceCollecting(context.Background(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	cs := s.Collector.Stats()
	if cs.Cycles != 10 {
		t.Fatalf("cycles = %d, want 10", cs.Cycles)
	}
	r, err := s.DB.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 80 {
		t.Fatalf("power points = %d, want 80 (8 nodes × 10 cycles)", got)
	}
}

// TestAdvanceCollectingStopsOnCancel: after three cycles the ctx is
// cancelled, and the next AdvanceCollecting returns an error wrapping
// the cancellation; the DB holds the three cycles and nothing the
// cancelled one swept.
func TestAdvanceCollectingStopsOnCancel(t *testing.T) {
	s := New(Config{Nodes: 8, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.AdvanceCollecting(ctx, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	written := s.DB.Stats().PointsWritten
	cancel()
	if err := s.AdvanceCollecting(ctx, 3*time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AdvanceCollecting returned %v, want an error wrapping context.Canceled", err)
	}
	if got := s.DB.Stats().PointsWritten; got != written {
		t.Fatalf("%d points written after the cancellation", got-written)
	}
	if cs := s.Collector.Stats(); cs.Cycles != 3 || cs.BMCFailures != 0 {
		t.Fatalf("collector: %d cycles, %d BMC failures; want 3 and 0", cs.Cycles, cs.BMCFailures)
	}
	r, err := s.DB.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 24 {
		t.Fatalf("power points = %d, want 24 (8 nodes × 3 cycles)", got)
	}
}

func TestBuilderServesCollectedData(t *testing.T) {
	s := New(Config{Nodes: 4, Seed: 2})
	ctx := context.Background()
	if err := s.AdvanceCollecting(ctx, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	resp, _, err := s.Builder.Fetch(ctx, builder.Request{
		Start:    s.Config.Start,
		End:      s.Now(),
		Interval: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 4 {
		t.Fatalf("builder nodes = %d", len(resp.Nodes))
	}
	sd := resp.Nodes[0].Metrics["Power/NodePower"]
	if len(sd.Times) < 5 {
		t.Fatalf("power buckets = %d", len(sd.Times))
	}
}

func TestSchemaSelectionPropagates(t *testing.T) {
	s := New(Config{Nodes: 2, Seed: 1, Schema: collector.SchemaV1})
	if err := s.AdvanceCollecting(context.Background(), 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range s.DB.Measurements() {
		if m == "NodeMetrics" {
			found = true
		}
	}
	if !found {
		t.Fatal("schema v1 layout not written")
	}
}

func TestRunLiveStopsOnContext(t *testing.T) {
	s := New(Config{Nodes: 2, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	err := s.RunLive(ctx, clock.NewReal(), 120, 20*time.Millisecond)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
	if s.Now() == s.Config.Start {
		t.Fatal("live run never advanced the simulation")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() int64 {
		s := New(Config{Nodes: 8, Seed: 77})
		if err := s.AdvanceCollecting(context.Background(), 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		return s.DB.Stats().PointsWritten
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic pipeline: %d vs %d points", a, b)
	}
}

func TestRetentionEnforced(t *testing.T) {
	s := New(Config{
		Nodes: 2, Seed: 1,
		ShardDuration: 600, // 10-minute shards
		Retention:     20 * time.Minute,
	})
	if err := s.AdvanceCollecting(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	stats := s.DB.ShardStats()
	oldest := stats[0].Start
	cutoff := s.Now().Add(-30 * time.Minute).Unix() // retention + shard slack
	if oldest < cutoff {
		t.Fatalf("oldest shard starts at %d, retention cutoff %d", oldest, cutoff)
	}
	if len(stats) == 0 {
		t.Fatal("everything deleted")
	}
}

func TestRollupsWiredIntoPipeline(t *testing.T) {
	s := New(Config{
		Nodes: 2, Seed: 1,
		Rollups: []tsdb.RollupSpec{
			{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300},
		},
	})
	if err := s.AdvanceCollecting(context.Background(), 20*time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := s.DB.Query(`SELECT count("Reading") FROM "Power_max_300s"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no rollup data materialized")
	}
	// 2 nodes × 3 complete 5-minute buckets (the 4th is incomplete).
	if got := res.Series[0].Rows()[0].Values[0].I; got < 4 {
		t.Fatalf("rollup points = %d", got)
	}
}

// TestRollupChainKeptCurrentByWritePath runs collection cycles over a
// raw -> 5m -> 1h chain and checks the write path alone keeps it
// current — nothing here or in the cycle calls the engine's explicit
// rollup catch-up: each tier's watermark and point count, and an hour-bucketed query the
// planner serves from the 1h tier, equal a brute-force aggregation of
// the raw samples.
func TestRollupChainKeptCurrentByWritePath(t *testing.T) {
	const cycles = 130 // 2 h 10 m: two closed hours, an open one, an open 5 m bucket
	s := New(Config{
		Nodes: 3, Seed: 1,
		Rollups: []tsdb.RollupSpec{
			{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300},
			{Source: "Power_max_300s", Field: "Reading", Aggregate: "max", Interval: 3600},
		},
	})
	if err := s.AdvanceCollecting(context.Background(), cycles*time.Minute); err != nil {
		t.Fatal(err)
	}
	start, last := s.Config.Start.Unix(), s.Now().Unix()

	// Brute force: every raw sample, bucketed by hand.
	raw, err := s.DB.Query(`SELECT "Reading" FROM "Power" GROUP BY "NodeId", "Label"`)
	if err != nil {
		t.Fatal(err)
	}
	type bucket struct {
		series string
		start  int64
	}
	name := func(tags tsdb.Tags) string {
		node, _ := tags.Get("NodeId")
		label, _ := tags.Get("Label")
		return node + "/" + label
	}
	max5m, max1h := map[bucket]float64{}, map[bucket]float64{}
	for _, sr := range raw.Series {
		for _, row := range sr.Rows() {
			v := row.Values[0].F
			for iv, m := range map[int64]map[bucket]float64{300: max5m, 3600: max1h} {
				b := bucket{name(sr.Tags), row.Time - row.Time%iv}
				if old, ok := m[b]; !ok || v > old {
					m[b] = v
				}
			}
		}
	}
	if len(raw.Series) == 0 || len(max1h) != 3*len(raw.Series) {
		t.Fatalf("raw fixture: %d series, %d hour buckets", len(raw.Series), len(max1h))
	}
	// A bucket closes once a later source point exists: the 5 m tier
	// stops at the bucket holding the newest sample, the 1 h tier at the
	// hour holding the 5 m watermark.
	wm5m := last - last%300
	wm1h := wm5m - wm5m%3600
	closed := func(m map[bucket]float64, wm int64) (n int64) {
		for b := range m {
			if b.start < wm {
				n++
			}
		}
		return n
	}
	tiers := s.DB.TierStats()
	if len(tiers) != 2 {
		t.Fatalf("tiers = %+v", tiers)
	}
	if tiers[0].Watermark != wm5m || tiers[0].Points != closed(max5m, wm5m) {
		t.Fatalf("5m tier %+v, want watermark %d and %d points", tiers[0], wm5m, closed(max5m, wm5m))
	}
	if tiers[1].Watermark != wm1h || tiers[1].Points != closed(max1h, wm1h) {
		t.Fatalf("1h tier %+v, want watermark %d and %d points", tiers[1], wm1h, closed(max1h, wm1h))
	}

	q, err := tsdb.Parse(fmt.Sprintf(
		`SELECT max("Reading") FROM "Power" WHERE time >= %d AND time <= %d GROUP BY time(1h), "NodeId", "Label"`, start, last))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.DB.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tier != tiers[1].Target {
		t.Fatalf("query served from %q, want tier %q", res.Stats.Tier, tiers[1].Target)
	}
	got := 0
	for _, sr := range res.Series {
		for _, row := range sr.Rows() {
			b := bucket{name(sr.Tags), row.Time}
			if want, ok := max1h[b]; !ok || row.Values[0].F != want {
				t.Fatalf("%v: planner answered %v, raw samples give %v (present %t)", b, row.Values[0].F, want, ok)
			}
			got++
		}
	}
	if got != len(max1h) {
		t.Fatalf("planner answered %d buckets, raw samples have %d", got, len(max1h))
	}
}

func TestAlertingWiredIntoPipeline(t *testing.T) {
	s := New(Config{Nodes: 4, Seed: 3, AlertRules: alerting.DefaultRules()})
	if s.Alerts == nil {
		t.Fatal("alert engine not wired")
	}
	ctx := context.Background()
	if err := s.AdvanceCollecting(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(s.Alerts.Active()) != 0 {
		t.Fatalf("healthy cluster has active alerts: %v", s.Alerts.Active())
	}
	// Overheat one node; after enough cycles the engine must raise.
	s.Nodes.Node(1).ForceLoad(1.0, 100)
	s.Nodes.Node(1).Inject(simnode.FaultOverheat)
	if err := s.AdvanceCollecting(ctx, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	active := s.Alerts.Active()
	found := false
	for _, a := range active {
		if a.Node == s.Nodes.Node(1).Addr() && a.To >= alerting.SeverityWarning {
			found = true
		}
	}
	if !found {
		t.Fatalf("overheating node not alerted: active=%v history=%v", active, s.Alerts.History())
	}
}

func TestNetworkAndFilesystemCollection(t *testing.T) {
	s := New(Config{Nodes: 4, Seed: 2, CollectNetwork: true, Workload: []scheduler.UserProfile{}})
	ctx := context.Background()
	s.QMaster.Submit(scheduler.JobSpec{Owner: "mpi", Name: "exchange", PE: scheduler.PEMPI, Slots: 100, Runtime: time.Hour})
	if err := s.AdvanceCollecting(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Network measurement exists, with traffic on the MPI nodes.
	res, err := s.DB.Query(`SELECT last("Reading") FROM "Network" WHERE "Label"='NICTx' GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, series := range res.Series {
		if series.Rows()[0].Values[0].F > 1e6 { // > 1 MB/s
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("MPI traffic visible on %d nodes, want >= 3 (100 slots / 36)", busy)
	}
	// Filesystem throughput recorded in-band.
	res, err = s.DB.Query(`SELECT max("Reading") FROM "Filesystem" WHERE "Label"='ReadMBps'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || res.Series[0].Rows()[0].Values[0].F <= 0 {
		t.Fatalf("no filesystem throughput recorded: %+v", res.Series)
	}
	// Five categories per node per cycle now.
	if got := s.Collector.Stats().BMCRequests; got != 5*4*5 {
		t.Fatalf("BMC requests = %d, want 100 (4 nodes x 5 categories x 5 cycles)", got)
	}
}

func TestNetworkCollectionViaTelemetry(t *testing.T) {
	s := New(Config{Nodes: 2, Seed: 2, CollectNetwork: true, Telemetry: true, Workload: []scheduler.UserProfile{}})
	s.QMaster.Submit(scheduler.JobSpec{Owner: "mpi", Name: "x", PE: scheduler.PEMPI, Slots: 50, Runtime: time.Hour})
	if err := s.AdvanceCollecting(context.Background(), 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := s.DB.Query(`SELECT count("Reading") FROM "Network"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || res.Series[0].Rows()[0].Values[0].I != 2*2*3 {
		t.Fatalf("telemetry network points = %+v", res.Series)
	}
	// Telemetry still needs only one request per node per cycle.
	if got := s.Collector.Stats().BMCRequests; got != 2*3 {
		t.Fatalf("BMC requests = %d, want 6", got)
	}
}

func TestPaperScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale soak skipped in -short")
	}
	// The full 467-node deployment: everything on (alerts, network
	// collection, rollups), five collection cycles.
	s := New(Config{
		Nodes:          QuanahNodes,
		Seed:           1,
		CollectNetwork: true,
		AlertRules:     alerting.DefaultRules(),
		Rollups: []tsdb.RollupSpec{
			{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300},
		},
	})
	ctx := context.Background()
	start := time.Now()
	if err := s.AdvanceCollecting(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	st := s.Collector.Stats()
	if st.Cycles != 5 || st.NodesFailed != 0 {
		t.Fatalf("collector stats = %+v", st)
	}
	// 467 nodes × 5 categories × 5 cycles BMC requests.
	if st.BMCRequests != int64(QuanahNodes*5*5) {
		t.Fatalf("requests = %d", st.BMCRequests)
	}
	// Roughly 10 metric points per node per cycle, plus jobs.
	if st.PointsWritten < int64(QuanahNodes*5*10) {
		t.Fatalf("points = %d", st.PointsWritten)
	}
	// A full builder fetch at paper scale must work.
	resp, _, err := s.Builder.Fetch(ctx, builder.Request{
		Start: s.Config.Start, End: s.Now(), Interval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != QuanahNodes {
		t.Fatalf("builder nodes = %d", len(resp.Nodes))
	}
	// Sanity: simulating+collecting 5 minutes of a 467-node cluster
	// should take seconds, not minutes, on a laptop.
	if elapsed > 2*time.Minute {
		t.Fatalf("soak took %v", elapsed)
	}
}

func TestTraceReplayConfig(t *testing.T) {
	trace := scheduler.GenerateWorkload(scheduler.DefaultUserMix(),
		time.Date(2020, 4, 20, 12, 0, 0, 0, time.UTC), time.Hour, 77)
	s := New(Config{Nodes: 8, Seed: 1, Trace: trace})
	if s.Workload != trace {
		t.Fatal("trace not installed")
	}
	if err := s.AdvanceCollecting(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := s.QMaster.Stats().Submitted; got == 0 {
		t.Fatal("trace replay submitted nothing")
	}
}

// TestTwoNodeForwarding wires two complete systems together the way
// README's two-node deployment does: node A polls its simulated cluster,
// routes every point through a rename rule, stores locally, and
// forwards the routed stream to node B's push receiver over HTTP.
// Both ends must account for every point.
func TestTwoNodeForwarding(t *testing.T) {
	b := New(Config{Nodes: 2, Seed: 7})
	mux := http.NewServeMux()
	mux.Handle("/v1/ingest/write", b.Push)
	mux.Handle("/", b.BuilderAPI)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	a := New(Config{
		Nodes:       4,
		Seed:        1,
		ForwardTo:   srv.URL + "/v1/ingest/write",
		IngestRules: []string{"add_tag:origin=node-a"},
	})
	if err := a.AdvanceCollecting(context.Background(), 5*time.Minute); err != nil {
		t.Fatal(err)
	}

	localPts := a.DB.Disk().Points
	if localPts == 0 {
		t.Fatal("node A stored nothing locally")
	}
	if got := b.DB.Disk().Points; got != localPts {
		t.Fatalf("node B has %d points, node A stored %d — forwarding lost data", got, localPts)
	}

	// The router's add_tag ran before the forward, so node B can group
	// by the injected origin tag.
	res, err := b.DB.Query(`SELECT count("Reading") FROM "Power" GROUP BY "origin"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("forwarded points missing routed tag: %+v", res.Series)
	}
	if v, ok := res.Series[0].Tags.Get("origin"); !ok || v != "node-a" {
		t.Fatalf("forwarded points missing routed tag: %+v", res.Series)
	}

	// Both pipelines' counters are non-zero and conserve exactly.
	ast := a.Ingest.Stats()
	var fwd *ingest.SinkStatus
	for i := range ast.Sinks {
		if ast.Sinks[i].Name == "forward" {
			fwd = &ast.Sinks[i]
		}
	}
	if fwd == nil || fwd.PointsWritten != localPts || fwd.ForwardErrors != 0 {
		t.Fatalf("node A forward sink stats = %+v", ast.Sinks)
	}
	bst := b.Ingest.Stats()
	var push *ingest.ReceiverStatus
	for i := range bst.Receivers {
		if bst.Receivers[i].Name == "push" {
			push = &bst.Receivers[i]
		}
	}
	if push == nil || push.PointsReceived != localPts {
		t.Fatalf("node B push receiver stats = %+v", bst.Receivers)
	}
}

// TestDownForwardPeerNeverFailsACycle: a node that stores locally and
// forwards to a peer that is gone keeps collecting with RunIngest
// active. Every cycle succeeds, the local store holds every collected
// point, and the peer's failures are only counted.
func TestDownForwardPeerNeverFailsACycle(t *testing.T) {
	peer := httptest.NewServer(http.NotFoundHandler())
	peer.Close()
	s := New(Config{Nodes: 2, Seed: 1, ForwardTo: peer.URL})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunIngest(ctx) }()
	for !s.Ingest.Stats().Running {
		time.Sleep(time.Millisecond)
	}

	var errs int64
	for cycle := 1; cycle <= 3; cycle++ {
		if err := s.AdvanceCollecting(context.Background(), CollectInterval); err != nil {
			t.Fatalf("cycle %d failed on a down forward peer: %v", cycle, err)
		}
		fe := s.Fwd.Stats().ForwardErrors
		if fe <= errs {
			t.Fatalf("cycle %d: forward_errors %d did not grow", cycle, fe)
		}
		errs = fe
	}
	cancel()
	<-done

	collected := s.Collector.Stats().PointsWritten
	if collected == 0 {
		t.Fatal("nothing collected")
	}
	if got := s.DB.Disk().Points; got != collected {
		t.Fatalf("local store holds %d points, collected %d", got, collected)
	}
	st := s.Ingest.Stats()
	for _, sk := range st.Sinks {
		want := int64(0)
		if sk.Name == "forward" {
			want = collected
		}
		if sk.PointsDropped != want {
			t.Fatalf("sink %s dropped %d points, want %d", sk.Name, sk.PointsDropped, want)
		}
	}
}

// TestForwardOnlyRelay: a ForwardOnly system keeps nothing locally —
// every collected point lands solely on the peer.
func TestForwardOnlyRelay(t *testing.T) {
	b := New(Config{Nodes: 2, Seed: 5})
	srv := httptest.NewServer(b.Push)
	defer srv.Close()

	a := New(Config{Nodes: 2, Seed: 1, ForwardTo: srv.URL, ForwardOnly: true})
	if a.Local != nil {
		t.Fatal("ForwardOnly system built a local sink")
	}
	if err := a.AdvanceCollecting(context.Background(), 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := a.DB.Disk().Points; got != 0 {
		t.Fatalf("relay stored %d points locally", got)
	}
	if got := b.DB.Disk().Points; got == 0 {
		t.Fatal("peer received nothing from the relay")
	}

	// Misconfiguration is rejected up front.
	if _, err := NewSystem(Config{ForwardOnly: true}); err == nil {
		t.Fatal("ForwardOnly without ForwardTo accepted")
	}
}
