package collector

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"monster/internal/clock"
	"monster/internal/redfish"
	"monster/internal/scheduler"
	"monster/internal/tsdb"
)

// newSlurmFixture wires a collector against the Slurm-flavoured API of
// the same simulated resource manager.
func newSlurmFixture(t *testing.T, nodes int) *fixture {
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
		Retries:        1,
		RetryBackoff:   time.Millisecond,
	})
	sched := NewSlurmSchedulerSource(srv.URL, nil)
	addrs := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		addrs[i] = fleet.Node(i).Addr()
	}
	col := New(addrs, rf, sched, Options{Emit: db.WritePoints})
	return &fixture{fleet: fleet, bmcs: bmcs, qm: qm, api: api, db: db, col: col, srv: srv}
}

func TestSlurmSourceHosts(t *testing.T) {
	f := newSlurmFixture(t, 3)
	f.qm.Submit(scheduler.JobSpec{Owner: "alice", Name: "mpi", PE: scheduler.PEMPI, Slots: 80, Runtime: time.Hour})
	f.advance(t0.Add(2*time.Minute), 15*time.Second)

	src := NewSlurmSchedulerSource(f.srv.URL, nil)
	hosts, err := src.Hosts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 3 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	busy := 0
	for _, h := range hosts {
		if h.Addr == "" {
			t.Fatalf("host %s missing address", h.Hostname)
		}
		if h.SlotsTotal != 36 {
			t.Fatalf("host = %+v", h)
		}
		if len(h.JobList) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("MPI job visible on %d hosts via Slurm source, want >= 2", busy)
	}
	if src.BytesRead() == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestSlurmSourceJobs(t *testing.T) {
	f := newSlurmFixture(t, 2)
	f.qm.Submit(scheduler.JobSpec{Owner: "bob", Name: "array", Slots: 1, Tasks: 3, Runtime: time.Hour})
	f.advance(t0.Add(time.Minute), 15*time.Second)

	src := NewSlurmSchedulerSource(f.srv.URL, nil)
	jobs, err := src.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for _, j := range jobs {
		if j.State != "r" {
			t.Fatalf("job state = %q", j.State)
		}
		if j.TaskID == 0 {
			t.Fatal("array task id lost in translation")
		}
		if _, err := time.Parse(time.RFC3339, j.SubmissionTime); err != nil {
			t.Fatalf("submission time %q: %v", j.SubmissionTime, err)
		}
	}
}

func TestSlurmSourceAccounting(t *testing.T) {
	f := newSlurmFixture(t, 2)
	f.qm.Submit(scheduler.JobSpec{Owner: "carol", Name: "quick", Slots: 2, Runtime: 2 * time.Minute})
	f.advance(t0.Add(10*time.Minute), 15*time.Second)

	src := NewSlurmSchedulerSource(f.srv.URL, nil)
	recs, err := src.Accounting(context.Background(), time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("accounting = %d", len(recs))
	}
	if recs[0].Owner != "carol" || recs[0].WallClock <= 0 || recs[0].Failed != 0 {
		t.Fatalf("record = %+v", recs[0])
	}
	// The since filter must prune.
	recs, err = src.Accounting(context.Background(), f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("future since returned %d records", len(recs))
	}
}

func TestCollectorOverSlurmSource(t *testing.T) {
	f := newSlurmFixture(t, 3)
	f.qm.Submit(scheduler.JobSpec{Owner: "dave", Name: "smp", PE: scheduler.PESMP, Slots: 36, Runtime: time.Hour})
	f.advance(t0.Add(2*time.Minute), 15*time.Second)

	res, err := f.col.CollectOnce(context.Background(), f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesOK != 3 {
		t.Fatalf("result = %+v", res)
	}
	// UGE measurement must be populated from Slurm data, tagged by
	// address so it joins the BMC series.
	r, err := f.db.Query(`SELECT count("Reading") FROM "UGE"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Series[0].Rows()[0].Values[0].I; got != 6 { // 3 nodes × 2 metrics
		t.Fatalf("UGE points = %d, want 6", got)
	}
	r, err = f.db.Query(`SELECT "Reading" FROM "UGE" WHERE "NodeId"='10.101.1.1' AND "Label"='CPUUsage'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 {
		t.Fatal("Slurm UGE data not joinable by node address")
	}
	// JobsInfo flows through the same pre-processing.
	r, err = f.db.Query(`SELECT "User" FROM "JobsInfo"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 || r.Series[0].Rows()[0].Values[0].S != "dave" {
		t.Fatalf("jobs info = %+v", r.Series)
	}
}
