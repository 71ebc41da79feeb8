package collector

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"monster/internal/clock"
	"monster/internal/redfish"
	"monster/internal/scheduler"
	"monster/internal/simnode"
	"monster/internal/tsdb"
)

var t0 = time.Date(2020, 4, 20, 12, 0, 0, 0, time.UTC)

type fixture struct {
	fleet *simnode.Fleet
	bmcs  *redfish.Fleet
	qm    *scheduler.QMaster
	api   *scheduler.API
	db    *tsdb.DB
	col   *Collector
	srv   *httptest.Server
}

func newFixture(t *testing.T, nodes int, opts Options) *fixture {
	t.Helper()
	fleet, bmcs := redfish.NewTestFleet(nodes, clock.NewReal())
	qm := scheduler.NewQMaster(fleet.Nodes(), t0, scheduler.Options{})
	api := scheduler.NewAPI(qm)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)

	db := tsdb.Open(tsdb.Options{})
	rf := redfish.NewClient(redfish.ClientOptions{
		HTTPClient:     bmcs.Client(),
		RequestTimeout: 2 * time.Second,
		Retries:        2,
		RetryBackoff:   time.Millisecond,
	})
	sched := NewHTTPSchedulerSource(srv.URL, nil)
	addrs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		addrs[i] = fleet.Node(i).Addr()
	}
	if opts.Emit == nil {
		opts.Emit = db.WritePoints
	}
	col := New(addrs, rf, sched, opts)
	return &fixture{fleet: fleet, bmcs: bmcs, qm: qm, api: api, db: db, col: col, srv: srv}
}

// advance steps physics and scheduler to the given time.
func (f *fixture) advance(until time.Time, step time.Duration) {
	for now := f.qm.Now(); now.Before(until); now = now.Add(step) {
		f.fleet.Step(step)
		f.qm.Tick(now.Add(step))
	}
}

func TestCollectOnceWritesBMCMetrics(t *testing.T) {
	f := newFixture(t, 4, Options{})
	f.advance(t0.Add(2*time.Minute), 15*time.Second)
	res, err := f.col.CollectOnce(context.Background(), f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesOK != 4 || res.NodesFail != 0 {
		t.Fatalf("result = %+v", res)
	}
	// 4 nodes × (7 thermal + 1 power) + health transitions + UGE + NodeJobs.
	if res.Points < 4*8 {
		t.Fatalf("points = %d", res.Points)
	}
	r, err := f.db.Query(`SELECT count("Reading") FROM "Thermal"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 4*7 {
		t.Fatalf("thermal readings = %d, want 28", got)
	}
	r, err = f.db.Query(`SELECT "Reading" FROM "Power" WHERE "NodeId"='10.101.1.1' AND "Label"='NodePower'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 || len(r.Series[0].Rows()) != 1 {
		t.Fatalf("power series = %+v", r.Series)
	}
	if v := r.Series[0].Rows()[0].Values[0].F; v < 50 || v > 500 {
		t.Fatalf("power reading = %v", v)
	}
}

func TestHealthStoredOnlyOnTransitions(t *testing.T) {
	f := newFixture(t, 2, Options{})
	ctx := context.Background()
	// Three healthy cycles: only the first observation per node+label.
	for i := 0; i < 3; i++ {
		f.advance(f.qm.Now().Add(time.Minute), 15*time.Second)
		if _, err := f.col.CollectOnce(ctx, f.qm.Now()); err != nil {
			t.Fatal(err)
		}
	}
	r, err := f.db.Query(`SELECT count("Status") FROM "Health"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 4 { // 2 nodes × {BMC, System}
		t.Fatalf("health points = %d, want 4 (first observations only)", got)
	}
	// Degrade one BMC: exactly one new transition point.
	f.fleet.Node(0).Inject(simnode.FaultBMCDegrade)
	f.advance(f.qm.Now().Add(time.Minute), 15*time.Second)
	if _, err := f.col.CollectOnce(ctx, f.qm.Now()); err != nil {
		t.Fatal(err)
	}
	r, err = f.db.Query(`SELECT count("Status") FROM "Health"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 5 {
		t.Fatalf("health points after fault = %d, want 5", got)
	}
	// The transition is stored as a compact integer, not a string.
	r, err = f.db.Query(`SELECT "Status" FROM "Health" WHERE "NodeId"='10.101.1.1' AND "Label"='BMC'`)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Series[0].Rows()
	last := rows[len(rows)-1]
	if last.Values[0].Kind != tsdb.KindInt || last.Values[0].I != 1 {
		t.Fatalf("health value = %+v, want integer 1 (Warning)", last.Values[0])
	}
}

func TestJobCorrelationAndFinishEstimation(t *testing.T) {
	f := newFixture(t, 3, Options{})
	ctx := context.Background()
	f.qm.Submit(scheduler.JobSpec{Owner: "jieyao", Name: "mpi", PE: scheduler.PEMPI, Slots: 72, Runtime: 3 * time.Minute})
	f.advance(t0.Add(time.Minute), 15*time.Second)
	if _, err := f.col.CollectOnce(ctx, f.qm.Now()); err != nil {
		t.Fatal(err)
	}

	// NodeJobs must correlate the job to its hosts.
	r, err := f.db.Query(`SELECT "JobList" FROM "NodeJobs"`)
	if err != nil {
		t.Fatal(err)
	}
	withJob := 0
	for _, s := range r.Series {
		for _, row := range s.Rows() {
			if keys := ParseJobList(row.Values[0].S); len(keys) == 1 {
				withJob++
			}
		}
	}
	if withJob < 2 {
		t.Fatalf("job visible on %d nodes, want >= 2 (MPI)", withJob)
	}

	// JobsInfo carries epoch ints and derived node count.
	r, err = f.db.Query(`SELECT "User", "SubmitTime", "NodeCount" FROM "JobsInfo"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 {
		t.Fatalf("jobsinfo series = %d", len(r.Series))
	}
	row := r.Series[0].Rows()[len(r.Series[0].Rows())-1]
	if row.Values[0].S != "jieyao" {
		t.Fatalf("user = %v", row.Values[0])
	}
	if row.Values[1].Kind != tsdb.KindInt || row.Values[1].I < t0.Unix() {
		t.Fatalf("submit time = %+v, want epoch int", row.Values[1])
	}
	if row.Values[2].I < 2 {
		t.Fatalf("node count = %v", row.Values[2])
	}

	// Let the job finish *between* collections: the diff-based finish
	// estimate must appear.
	f.advance(f.qm.Now().Add(5*time.Minute), 15*time.Second)
	if _, err := f.col.CollectOnce(ctx, f.qm.Now()); err != nil {
		t.Fatal(err)
	}
	st := f.col.Stats()
	if st.FinishEstimates+st.FinishExact == 0 {
		t.Fatalf("no finish time recorded: %+v", st)
	}
	r, err = f.db.Query(`SELECT "FinishTime" FROM "JobsInfo"`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range r.Series {
		for _, row := range s.Rows() {
			if row.Present[0] && row.Values[0].I > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("FinishTime never stored")
	}
}

func TestSchemaV1WritesVerboseLayout(t *testing.T) {
	f := newFixture(t, 2, Options{Schema: SchemaV1})
	ctx := context.Background()
	f.qm.Submit(scheduler.JobSpec{Owner: "u", Slots: 1, Runtime: time.Hour, Name: "j"})
	f.advance(t0.Add(time.Minute), 15*time.Second)
	if _, err := f.col.CollectOnce(ctx, f.qm.Now()); err != nil {
		t.Fatal(err)
	}
	ms := f.db.Measurements()
	want := map[string]bool{"CPU1Temp": false, "NodePower": false, "BMCHealth": false, "NodeMetrics": false}
	for _, m := range ms {
		if _, ok := want[m]; ok {
			want[m] = true
		}
	}
	for m, seen := range want {
		if !seen {
			t.Errorf("schema v1 missing measurement %s (have %v)", m, ms)
		}
	}
	// Health stored every cycle as strings under v1.
	if _, err := f.col.CollectOnce(ctx, f.qm.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	r, err := f.db.Query(`SELECT count("Status") FROM "BMCHealth"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 4 { // 2 nodes × 2 cycles
		t.Fatalf("v1 health samples = %d, want 4 (no filtering)", got)
	}
}

// TestLineBreakSkipsOnlyItsPoint: an outside string that holds a line
// break (here a job owner, which schema v1 stores as a tag) costs only
// its own point, counted in PointsSkipped; the rest of the cycle lands.
func TestLineBreakSkipsOnlyItsPoint(t *testing.T) {
	f := newFixture(t, 2, Options{Schema: SchemaV1})
	f.qm.Submit(scheduler.JobSpec{Owner: "u", Slots: 1, Runtime: time.Hour, Name: "j"})
	f.qm.Submit(scheduler.JobSpec{Owner: "bad\nowner", Slots: 1, Runtime: time.Hour, Name: "k"})
	f.advance(t0.Add(time.Minute), 15*time.Second)
	res, err := f.col.CollectOnce(context.Background(), f.qm.Now())
	if err != nil {
		t.Fatalf("one bad owner failed the cycle: %v", err)
	}
	if got := f.col.Stats().PointsSkipped; got != 1 {
		t.Fatalf("PointsSkipped = %d, want 1", got)
	}
	if got := f.db.Disk().Points; got != int64(res.Points) {
		t.Fatalf("stored %d points, want the cycle's %d", got, res.Points)
	}
	jobs := 0
	for _, m := range f.db.Measurements() {
		if strings.HasPrefix(m, "Job") {
			jobs++
		}
	}
	if jobs != 1 {
		t.Fatalf("%d job measurements stored, want the good job's 1 (have %v)", jobs, f.db.Measurements())
	}
}

func TestSchemaVolumeV2SmallerThanV1(t *testing.T) {
	run := func(schema SchemaVersion) int64 {
		f := newFixture(t, 3, Options{Schema: schema})
		ctx := context.Background()
		f.qm.Submit(scheduler.JobSpec{Owner: "u", Slots: 4, Runtime: time.Hour, Name: "j"})
		for i := 0; i < 5; i++ {
			f.advance(f.qm.Now().Add(time.Minute), 15*time.Second)
			if _, err := f.col.CollectOnce(ctx, f.qm.Now()); err != nil {
				t.Fatal(err)
			}
		}
		return f.db.Disk().TotalBytes()
	}
	v1 := run(SchemaV1)
	v2 := run(SchemaV2)
	if v2 >= v1/2 {
		t.Fatalf("optimized schema %d B not well below previous %d B", v2, v1)
	}
}

func TestBMCFailureDoesNotPoisonCycle(t *testing.T) {
	f := newFixture(t, 3, Options{})
	b, _ := f.bmcs.BMC("10.101.1.2")
	b.SetUnreachable(true)
	f.advance(t0.Add(time.Minute), 15*time.Second)
	res, err := f.col.CollectOnce(context.Background(), f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesOK != 2 || res.NodesFail != 1 {
		t.Fatalf("result = %+v", res)
	}
	// The healthy nodes' data still landed.
	r, err := f.db.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 2 {
		t.Fatalf("power points = %d, want 2", got)
	}
	if f.col.Stats().BMCFailures == 0 {
		t.Fatal("failures not counted")
	}
}

// TestCollectOnceCancelledStops: a cycle whose ctx is cancelled
// returns the ctx's error and emits nothing — not a batch of the
// scheduler's points beside every node counted failed.
func TestCollectOnceCancelledStops(t *testing.T) {
	emits := 0
	f := newFixture(t, 3, Options{Emit: func([]tsdb.Point) error { emits++; return nil }})
	f.advance(t0.Add(time.Minute), 15*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.col.CollectOnce(ctx, f.qm.Now()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cycle returned %v, want context.Canceled", err)
	}
	if st := f.col.Stats(); emits != 0 || st.PointsWritten != 0 || st.BMCRequests != 0 || st.BMCFailures != 0 || st.NodesFailed != 0 {
		t.Fatalf("cancelled cycle: %d emits, stats %+v; want nothing emitted, requested or failed", emits, st)
	}
}

// TestCollectOnceWithoutEmitFails checks the collector's only output:
// with no Emit bound a cycle reports an error instead of dropping its
// points, and binding one afterwards delivers the next cycle.
func TestCollectOnceWithoutEmitFails(t *testing.T) {
	f := newFixture(t, 2, Options{})
	f.col.SetEmit(nil)
	f.advance(t0.Add(time.Minute), 15*time.Second)
	res, err := f.col.CollectOnce(context.Background(), f.qm.Now())
	if err == nil {
		t.Fatalf("cycle of %d points with no Emit bound reported success", res.Points)
	}
	if got := f.db.Disk().Points; got != 0 {
		t.Fatalf("db has %d points with no Emit bound", got)
	}
	var got int
	f.col.SetEmit(func(points []tsdb.Point) error { got = len(points); return nil })
	res, err = f.col.CollectOnce(context.Background(), f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 || got != res.Points {
		t.Fatalf("emit received %d points, cycle reported %d", got, res.Points)
	}
}

// TestCycleTimeStopsAtHandOff: a cycle's TotalTime (and the
// collector's LastCycle) is sweep + pre-processing. The Emit write
// that follows is timed by its sink, so counting it here would charge
// it twice.
func TestCycleTimeStopsAtHandOff(t *testing.T) {
	sim := clock.NewSim(t0)
	f := newFixture(t, 2, Options{Clock: sim})
	const write = time.Hour
	f.col.SetEmit(func(points []tsdb.Point) error { sim.Advance(write); return nil })
	f.advance(t0.Add(time.Minute), 15*time.Second)
	res, err := f.col.CollectOnce(context.Background(), f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime >= write {
		t.Fatalf("TotalTime = %v includes the %v Emit write", res.TotalTime, write)
	}
	if st := f.col.Stats(); st.LastCycle != res.TotalTime {
		t.Fatalf("LastCycle = %v, want the cycle's TotalTime %v", st.LastCycle, res.TotalTime)
	}
}

func TestSchedulerBytesAccounted(t *testing.T) {
	f := newFixture(t, 2, Options{})
	f.advance(t0.Add(time.Minute), 15*time.Second)
	if _, err := f.col.CollectOnce(context.Background(), f.qm.Now()); err != nil {
		t.Fatal(err)
	}
	if f.col.sched.BytesRead() == 0 {
		t.Fatal("no scheduler bytes accounted (Table IV input)")
	}
}

func TestParseJobList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"['1291784', '1318962']", []string{"1291784", "1318962"}},
		{"['1291784.3']", []string{"1291784.3"}},
		{"[]", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := ParseJobList(c.in)
		if len(got) != len(c.want) {
			t.Errorf("ParseJobList(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseJobList(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestDirectSchedulerSource(t *testing.T) {
	f := newFixture(t, 2, Options{})
	f.qm.Submit(scheduler.JobSpec{Owner: "u", Slots: 1, Runtime: time.Hour})
	f.advance(t0.Add(time.Minute), 15*time.Second)
	src := &DirectSchedulerSource{API: f.api}
	hosts, err := src.Hosts(context.Background())
	if err != nil || len(hosts) != 2 {
		t.Fatalf("hosts = %v, %v", hosts, err)
	}
	jobs, err := src.Jobs(context.Background())
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs = %v, %v", jobs, err)
	}
	if src.BytesRead() == 0 {
		t.Fatal("direct source did not account bytes")
	}
}

func TestItoa(t *testing.T) {
	cases := map[int64]string{0: "0", 7: "7", 1291784: "1291784", -42: "-42"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSchemaVersionString(t *testing.T) {
	if SchemaV1.String() != "previous" || SchemaV2.String() != "optimized" {
		t.Fatal("schema names wrong")
	}
}

func TestTelemetrySweepQuartersRequestCount(t *testing.T) {
	// Same fixture, but BMCs with Telemetry firmware and a collector in
	// telemetry mode: one request per node per cycle instead of four.
	fleet := simnode.NewFleet(4, 1)
	bmcs := redfish.NewFleet(fleet, redfish.BMCOptions{Telemetry: true, MaxConcurrent: 8})
	qm := scheduler.NewQMaster(fleet.Nodes(), t0, scheduler.Options{})
	api := scheduler.NewAPI(qm)
	db := tsdb.Open(tsdb.Options{})
	rf := redfish.NewClient(redfish.ClientOptions{
		HTTPClient: bmcs.Client(), RequestTimeout: 2 * time.Second,
		Retries: 1, RetryBackoff: time.Millisecond,
	})
	col := New(fleetAddrs(fleet), rf, &DirectSchedulerSource{API: api}, Options{UseTelemetry: true, Emit: db.WritePoints})

	fleet.Step(2 * time.Minute)
	qm.Tick(t0.Add(2 * time.Minute))
	res, err := col.CollectOnce(context.Background(), qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesOK != 4 {
		t.Fatalf("result = %+v", res)
	}
	if got := col.Stats().BMCRequests; got != 4 {
		t.Fatalf("BMC requests = %d, want 4 (one MetricReport per node)", got)
	}
	// Data parity: same measurements as the four-category sweep.
	r, err := db.Query(`SELECT count("Reading") FROM "Thermal"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 4*7 {
		t.Fatalf("thermal points = %d, want 28", got)
	}
	r, err = db.Query(`SELECT count("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 4 {
		t.Fatalf("power points = %d", got)
	}
}

func TestTelemetryAgainstOldFirmwareFails(t *testing.T) {
	fleet := simnode.NewFleet(2, 1)
	bmcs := redfish.NewFleet(fleet, redfish.BMCOptions{MaxConcurrent: 8}) // 13G: no telemetry
	qm := scheduler.NewQMaster(fleet.Nodes(), t0, scheduler.Options{})
	db := tsdb.Open(tsdb.Options{})
	rf := redfish.NewClient(redfish.ClientOptions{
		HTTPClient: bmcs.Client(), RequestTimeout: time.Second,
		Retries: 1, RetryBackoff: time.Millisecond,
	})
	col := New(fleetAddrs(fleet), rf, &DirectSchedulerSource{API: scheduler.NewAPI(qm)}, Options{UseTelemetry: true, Emit: db.WritePoints})
	res, err := col.CollectOnce(context.Background(), t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesOK != 0 || res.NodesFail != 2 {
		t.Fatalf("old firmware should fail telemetry sweeps: %+v", res)
	}
}

func fleetAddrs(fleet *simnode.Fleet) []string {
	addrs := make([]string, fleet.Len())
	for i := range addrs {
		addrs[i] = fleet.Node(i).Addr()
	}
	return addrs
}
