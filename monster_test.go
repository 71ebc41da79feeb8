package monster_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"monster"
)

// TestEndToEndPipeline drives the full public surface: simulate a
// cluster, collect, serve the Metrics Builder API over HTTP, fetch
// with the compressed consumer client, and run the analysis layer on
// the result — the complete paper pipeline in one test.
func TestEndToEndPipeline(t *testing.T) {
	sys := monster.New(monster.Config{Nodes: 12, Seed: 3, ConcurrentQueries: true})
	ctx := context.Background()
	if err := sys.AdvanceCollecting(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}

	st := sys.Collector.Stats()
	if st.Cycles != 60 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
	if st.PointsWritten == 0 || st.BMCRequests != 60*12*4 {
		t.Fatalf("stats = %+v", st)
	}

	srv := httptest.NewServer(sys.BuilderAPI)
	defer srv.Close()
	client := &monster.BuilderClient{BaseURL: srv.URL, Compress: true}
	res, err := client.Fetch(ctx, monster.Request{
		Start:       sys.Config.Start,
		End:         sys.Now(),
		Interval:    5 * time.Minute,
		Aggregate:   "mean",
		IncludeJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Response.Nodes) != 12 {
		t.Fatalf("nodes = %d", len(res.Response.Nodes))
	}
	if res.WireBytes >= res.BodyBytes {
		t.Fatalf("compression did not shrink transport: %d vs %d", res.WireBytes, res.BodyBytes)
	}
	power := res.Response.Nodes[0].Metrics["Power/NodePower"]
	if len(power.Times) != 12 {
		t.Fatalf("power buckets = %d, want 12", len(power.Times))
	}
	for _, v := range power.Values {
		if v < 50 || v > 500 {
			t.Fatalf("implausible power %v", v)
		}
	}
	if len(res.Response.Jobs) == 0 {
		t.Fatal("no jobs returned (workload generator idle?)")
	}

	// Analysis layer over live health vectors.
	vecs := make([][]float64, sys.Nodes.Len())
	ids := make([]string, sys.Nodes.Len())
	for i := 0; i < sys.Nodes.Len(); i++ {
		hv := sys.Nodes.Node(i).HealthVector()
		vecs[i] = hv[:]
		ids[i] = sys.Nodes.Node(i).Name()
	}
	norm := monster.Normalize(vecs, monster.ComputeBounds(vecs))
	km, err := monster.KMeans(norm, monster.KMeansOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dims := monster.HealthDimensions()
	profiles, err := monster.BuildRadarProfiles(ids, dims[:], vecs, km.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	svg := monster.RadarSVG(&profiles[0], 200)
	if !strings.Contains(svg, "polygon") {
		t.Fatal("radar svg empty")
	}
}

func TestFacadeTimelinePath(t *testing.T) {
	sys := monster.New(monster.Config{Nodes: 16, Seed: 9})
	ctx := context.Background()
	if err := sys.AdvanceCollecting(ctx, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	resp, _, err := sys.Builder.Fetch(ctx, monster.Request{
		Start: sys.Config.Start, End: sys.Now(), IncludeJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]monster.TimelineJob, 0, len(resp.Jobs))
	for _, j := range resp.Jobs {
		jobs = append(jobs, monster.TimelineJob{
			JobID: j.JobID, User: j.User,
			SubmitTime: j.SubmitTime, StartTime: j.StartTime, FinishTime: j.FinishTime,
			Slots: int(j.Slots), NodeCount: int(j.NodeCount),
		})
	}
	tl := monster.BuildTimeline(jobs, sys.Config.Start.Unix(), sys.Now().Unix())
	if len(tl.Users) == 0 || len(tl.Jobs) == 0 {
		t.Fatalf("timeline empty: %d users %d jobs", len(tl.Users), len(tl.Jobs))
	}
	nodeJobs := map[string][]string{}
	for _, nj := range resp.NodeJobs {
		nodeJobs[nj.NodeID] = append(nodeJobs[nj.NodeID], nj.Jobs...)
	}
	owner := map[string]string{}
	for _, j := range resp.Jobs {
		owner[j.JobID] = j.User
	}
	counts := monster.DistinctUserHosts(nodeJobs, owner)
	tl.OverrideHosts(counts)
	svg := monster.TimelineSVG(tl, 800)
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "rect") {
		t.Fatal("timeline svg incomplete")
	}
}

func TestFacadeFaultVisibleInHealthMeasurement(t *testing.T) {
	sys := monster.New(monster.Config{Nodes: 4, Seed: 2})
	ctx := context.Background()
	if err := sys.AdvanceCollecting(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	sys.Nodes.Node(1).Inject(monster.FaultBMCDegrade)
	if err := sys.AdvanceCollecting(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := sys.DB.Query(`SELECT "Status" FROM "Health" WHERE "Label"='BMC' AND "NodeId"='10.101.1.2'`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Series {
		for _, row := range s.Rows() {
			if row.Values[0].I == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("BMC warning transition not stored")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := monster.ExperimentIDs()
	if len(ids) < 18 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	tbl, err := monster.RunExperiment("table3", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Format(), "Metrics Builder") {
		t.Fatal("table3 content wrong")
	}
}

func TestCompressionFacadeRoundTrip(t *testing.T) {
	data := []byte(strings.Repeat("monitoring data ", 1000))
	comp, err := monster.Compress(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(data)/10 {
		t.Fatalf("weak compression: %d -> %d", len(data), len(comp))
	}
	back, err := monster.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Fatal("round trip corrupted")
	}
}

func TestFacadeStorageFeatures(t *testing.T) {
	db := monster.OpenDB(monster.DBOptions{})
	// Line protocol in.
	n, err := db.WriteLineProtocol([]byte(
		"Power,NodeId=10.101.1.1,Label=NodePower Reading=273.8 1000\n"+
			"Power,NodeId=10.101.1.1,Label=NodePower Reading=280.1 1060\n"), 0)
	if err != nil || n != 2 {
		t.Fatalf("line protocol write: %d, %v", n, err)
	}
	// SHOW and ORDER BY through the facade DB.
	res, err := db.Query(`SHOW MEASUREMENTS`)
	if err != nil || len(res.Series) != 1 {
		t.Fatalf("show: %v %v", res, err)
	}
	res, err = db.Query(`SELECT "Reading" FROM "Power" ORDER BY time DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Rows()[0].Values[0].F != 280.1 {
		t.Fatalf("latest = %v", res.Series[0].Rows()[0].Values[0])
	}
	// Rollups.
	if err := db.RegisterRollup(monster.RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 60}); err != nil {
		t.Fatal(err)
	}
	// A later reading closes the minute buckets before it.
	if _, err := db.WriteLineProtocol([]byte("Power,NodeId=10.101.1.1,Label=NodePower Reading=275.0 2000\n"), 0); err != nil {
		t.Fatal(err)
	}
	// Persistence round trip.
	path := t.TempDir() + "/snap.db"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := monster.LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Disk().Points != db.Disk().Points {
		t.Fatal("snapshot round trip lost points")
	}
	// Export back to line protocol.
	out := monster.FormatLineProtocol([]monster.Point{{
		Measurement: "m", Fields: map[string]monster.Value{"f": {F: 1}}, Time: 5,
	}})
	if pts, err := monster.ParseLineProtocol(out, 0); err != nil || len(pts) != 1 {
		t.Fatalf("facade line protocol round trip: %v %v", pts, err)
	}
}

func TestFacadeAlertingAndCorrelation(t *testing.T) {
	db := monster.OpenDB(monster.DBOptions{})
	err := db.WritePoint(monster.Point{
		Measurement: "Thermal",
		Tags:        monster.Tags{{Key: "NodeId", Value: "n1"}, {Key: "Label", Value: "CPU1Temp"}},
		Fields:      map[string]monster.Value{"Reading": {F: 97}},
		Time:        100,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := monster.NewAlertEngine(db, monster.DefaultAlertRules())
	if err != nil {
		t.Fatal(err)
	}
	// Default rules confirm after 2 evaluations.
	for i := 0; i < 2; i++ {
		if _, err := eng.Evaluate(time.Unix(int64(101+i), 0), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if eng.State("cpu1-temp", "n1") != monster.AlertCritical {
		t.Fatalf("state = %v", eng.State("cpu1-temp", "n1"))
	}

	r := monster.Pearson([]float64{1, 2, 3}, []float64{2, 4, 6})
	if r < 0.999 {
		t.Fatalf("pearson = %v", r)
	}
	m := monster.Correlate([]monster.CorrSeries{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{3, 2, 1}},
	})
	if v, _ := m.Lookup("a", "b"); v > -0.999 {
		t.Fatalf("anticorrelation = %v", v)
	}
}

func TestFacadeEnergyAttributionEndToEnd(t *testing.T) {
	sys := monster.New(monster.Config{Nodes: 8, Seed: 4})
	ctx := context.Background()
	if err := sys.AdvanceCollecting(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	resp, _, err := sys.Builder.Fetch(ctx, monster.Request{
		Start: sys.Config.Start, End: sys.Now(),
		Interval:    time.Minute,
		Metrics:     []monster.Metric{{Measurement: "Power", Label: "NodePower"}},
		IncludeJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := monster.AttributeEnergy(monster.AttributionFromResponse(resp, 105))
	if res.TotalJoules <= 0 {
		t.Fatal("no energy integrated")
	}
	var ledger float64
	for _, je := range res.Jobs {
		ledger += je.Joules
	}
	ledger += res.IdleJoules + res.UnattributedJoules
	if diff := (ledger - res.TotalJoules) / res.TotalJoules; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("energy not conserved: %v vs %v", ledger, res.TotalJoules)
	}
}

func TestFacadeWorkloadTrace(t *testing.T) {
	w := monster.GenerateWorkload(monster.DefaultUserMix(), time.Unix(1587384000, 0).UTC(), 2*time.Hour, 5)
	var buf strings.Builder
	if err := w.SaveTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := monster.LoadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != w.Len() {
		t.Fatalf("trace round trip: %d vs %d", back.Len(), w.Len())
	}
}

func TestFacadeExtendedMetricsPipeline(t *testing.T) {
	sys := monster.New(monster.Config{Nodes: 4, Seed: 6, CollectNetwork: true})
	ctx := context.Background()
	if err := sys.AdvanceCollecting(ctx, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	resp, _, err := sys.Builder.Fetch(ctx, monster.Request{
		Start: sys.Config.Start, End: sys.Now(),
		Interval: time.Minute,
		Metrics:  monster.ExtendedMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sd, ok := resp.Nodes[0].Metrics["Network/NICRx"]
	if !ok || len(sd.Times) == 0 {
		t.Fatal("extended metrics missing network series")
	}
	if _, ok := resp.Nodes[0].Metrics["Filesystem/ReadMBps"]; !ok {
		t.Fatal("extended metrics missing filesystem series")
	}
}
