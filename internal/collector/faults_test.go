package collector

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"monster/internal/simnode"
)

// Fault-injection tests: the collector must degrade gracefully under
// arbitrary BMC misbehaviour and never write malformed data.

func TestCollectorSurvivesRandomBMCFaults(t *testing.T) {
	f := newFixture(t, 6, Options{})
	rng := rand.New(rand.NewSource(4242))
	ctx := context.Background()
	now := t0
	for cycle := 0; cycle < 8; cycle++ {
		// Randomly flip BMC failure modes each cycle.
		for i := 0; i < 6; i++ {
			addr := f.fleet.Node(i).Addr()
			bmc, _ := f.bmcs.BMC(addr)
			bmc.SetUnreachable(rng.Float64() < 0.2)
			if rng.Float64() < 0.3 {
				bmc.SetErrorRate(rng.Float64() * 0.5)
			} else {
				bmc.SetErrorRate(0)
			}
		}
		now = now.Add(time.Minute)
		f.advance(now, 15*time.Second)
		res, err := f.col.CollectOnce(ctx, now)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if res.NodesOK+res.NodesFail != 6 {
			t.Fatalf("cycle %d: node accounting broken: %+v", cycle, res)
		}
	}
	st := f.col.Stats()
	if st.Cycles != 8 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
	if st.NodesSwept+st.NodesFailed != 8*6 {
		t.Fatalf("sweep accounting: %+v", st)
	}
	// All stored data remains well-formed and within sensor envelopes.
	res, err := f.db.Query(`SELECT "Reading" FROM "Power" GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, row := range s.Rows() {
			if v := row.Values[0].F; v < 0 || v > 600 {
				t.Fatalf("implausible stored power %v", v)
			}
		}
	}
}

func TestCollectorRecoversAfterTotalOutage(t *testing.T) {
	f := newFixture(t, 3, Options{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		bmc, _ := f.bmcs.BMC(f.fleet.Node(i).Addr())
		bmc.SetUnreachable(true)
	}
	f.advance(t0.Add(time.Minute), 15*time.Second)
	res, err := f.col.CollectOnce(ctx, f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesOK != 0 || res.NodesFail != 3 {
		t.Fatalf("outage cycle = %+v", res)
	}
	// Scheduler-side data still flows during the BMC outage (UGE data
	// is collected through the head node, not the BMCs).
	r, err := f.db.Query(`SELECT count("Reading") FROM "UGE"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) == 0 || r.Series[0].Rows()[0].Values[0].I != 6 {
		t.Fatalf("UGE data missing during BMC outage: %+v", r.Series)
	}

	// Full recovery on the next cycle.
	for i := 0; i < 3; i++ {
		bmc, _ := f.bmcs.BMC(f.fleet.Node(i).Addr())
		bmc.SetUnreachable(false)
	}
	f.advance(f.qm.Now().Add(time.Minute), 15*time.Second)
	res, err = f.col.CollectOnce(ctx, f.qm.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesOK != 3 {
		t.Fatalf("recovery cycle = %+v", res)
	}
}

func TestCollectorSchedulerOutage(t *testing.T) {
	// Kill the scheduler API server: BMC data must still be written.
	f := newFixture(t, 2, Options{})
	f.advance(t0.Add(time.Minute), 15*time.Second)
	f.srv.Close()
	res, err := f.col.CollectOnce(context.Background(), f.qm.Now())
	if err == nil {
		t.Fatal("scheduler outage not reported")
	}
	if res.NodesOK != 2 {
		t.Fatalf("BMC sweep result = %+v", res)
	}
	r, qerr := f.db.Query(`SELECT count("Reading") FROM "Power"`)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if len(r.Series) == 0 || r.Series[0].Rows()[0].Values[0].I != 2 {
		t.Fatal("BMC data lost when scheduler is down")
	}
}

func TestHealthTransitionSequenceFullCycle(t *testing.T) {
	// OK -> Warning -> Critical -> OK must store exactly the
	// transitions, in order, with integer codes.
	f := newFixture(t, 1, Options{})
	ctx := context.Background()
	node := f.fleet.Node(0)
	collect := func() {
		f.advance(f.qm.Now().Add(time.Minute), 15*time.Second)
		if _, err := f.col.CollectOnce(ctx, f.qm.Now()); err != nil {
			t.Fatal(err)
		}
	}
	collect() // initial OK observation

	node.ForceLoad(1.0, 100)
	node.Inject(simnode.FaultOverheat)
	for i := 0; i < 40; i++ { // heat up through warning into critical
		collect()
	}
	node.Inject(simnode.FaultNone)
	node.ForceLoad(0, 0)
	for i := 0; i < 40; i++ { // cool back down
		collect()
	}

	res, err := f.db.Query(`SELECT "Status" FROM "Health" WHERE "Label"='System'`)
	if err != nil {
		t.Fatal(err)
	}
	var codes []int64
	for _, s := range res.Series {
		for _, row := range s.Rows() {
			codes = append(codes, row.Values[0].I)
		}
	}
	// Expect the full round trip 0,1,2,...,0 (possibly with extra
	// transitions while hovering at a boundary).
	if len(codes) < 4 {
		t.Fatalf("transitions = %v, want at least 0,1,2,...,0", codes)
	}
	if codes[0] != 0 {
		t.Fatalf("first observation = %d, want 0", codes[0])
	}
	saw1, saw2 := false, false
	for _, c := range codes {
		if c == 1 {
			saw1 = true
		}
		if c == 2 {
			saw2 = true
		}
	}
	if !saw1 || !saw2 {
		t.Fatalf("transitions %v missed warning/critical", codes)
	}
	if codes[len(codes)-1] != 0 {
		t.Fatalf("final state = %d, want recovered 0 (codes %v)", codes[len(codes)-1], codes)
	}
	// Consecutive duplicates would mean the filter leaked.
	for i := 1; i < len(codes); i++ {
		if codes[i] == codes[i-1] {
			t.Fatalf("duplicate consecutive health state stored: %v", codes)
		}
	}
}
