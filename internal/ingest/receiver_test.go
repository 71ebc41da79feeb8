package ingest

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

func TestPushReceiverStatuses(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(NewTSDBSink(db))
	push := NewPushReceiver()
	push.maxBody = 128

	srv := httptest.NewServer(push)
	defer srv.Close()

	// Unbound: the receiver is not attached to a pipeline yet.
	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("x v=1i 1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unbound push status = %d, want 503", resp.StatusCode)
	}

	p.AddReceiver(push)

	// Non-POST.
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}

	// Parse failure.
	resp, err = http.Post(srv.URL, "text/plain", strings.NewReader("not line protocol"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload status = %d, want 400", resp.StatusCode)
	}

	// Oversized body.
	big := strings.Repeat("a", 256)
	resp, err = http.Post(srv.URL, "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %d, want 413", resp.StatusCode)
	}

	// Success: points land in the local sink before the 204.
	line := `Power,NodeId=10.101.1.1 Reading=212.4 1587384000` + "\n"
	resp, err = http.Post(srv.URL, "text/plain", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push status = %d, want 204", resp.StatusCode)
	}
	if got := db.Disk().Points; got != 1 {
		t.Fatalf("db has %d points, want 1", got)
	}
	st := p.Stats()
	var pushStat *ReceiverStatus
	for i := range st.Receivers {
		if st.Receivers[i].Name == "push" {
			pushStat = &st.Receivers[i]
		}
	}
	if pushStat == nil || pushStat.PointsReceived != 1 {
		t.Fatalf("receiver stats = %+v", st.Receivers)
	}
	// Every request counts, including the unbound 503.
	if pushStat.Extra["requests"] != 5 || pushStat.Extra["parse_errors"] != 1 {
		t.Fatalf("extra = %+v", pushStat.Extra)
	}
}

// TestPushReceiverTruncatedBody pins the 413/400 split: 413 is
// reserved for the body-size limiter, while a body that dies mid-read
// (Content-Length promising more bytes than ever arrive) is the
// client's malformed request and must map to 400. The old handler
// collapsed every read error into 413, telling well-behaved clients
// with flaky connections to shrink their batches forever.
func TestPushReceiverTruncatedBody(t *testing.T) {
	push := NewPushReceiver()
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(NewTSDBSink(tsdb.Open(tsdb.Options{})))
	p.AddReceiver(push)

	srv := httptest.NewServer(push)
	defer srv.Close()

	// Speak raw TCP so we can promise 4096 bytes and hang up after 10:
	// the handler's io.ReadAll sees an unexpected EOF, not the limiter.
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST / HTTP/1.1\r\nHost: x\r\nContent-Type: text/plain\r\nContent-Length: 4096\r\n\r\nPower,N=1 v"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body status = %d, want 400", resp.StatusCode)
	}
}

func TestPushReceiverDefaultTimestamp(t *testing.T) {
	clk := clock.NewSim(time.Unix(5000, 0))
	push := NewPushReceiver()
	push.clk = clk
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.Open(tsdb.Options{})
	p.AddSink(NewTSDBSink(db))
	p.AddReceiver(push)

	srv := httptest.NewServer(push)
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("Power,NodeId=n1 Reading=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	res, err := db.Query(`SELECT "Reading" FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if ts := res.Series[0].Rows()[0].Time; ts != 5000 {
		t.Fatalf("default-stamped time = %d, want 5000", ts)
	}
}

func TestParsePrometheus(t *testing.T) {
	body := []byte(`# HELP node_power Node power draw in watts.
# TYPE node_power gauge
node_power{host="n1",rack="r 1"} 212.5 1587384000000
node_power{host="n2"} 198
cpu_seconds_total 1234.5

weird_label{msg="a\"b\\nc"} 1
broken_label{msg="a\nb"} 1
rpc_duration_seconds{quantile="0.99"} NaN
queue_limit +Inf
queue_floor{q="a"} -Inf 1587384000000
`)
	pts, skipped, err := ParsePrometheus(body, 7777)
	if err != nil {
		t.Fatal(err)
	}
	// Skipped: the three non-finite samples and the label value whose
	// \n escape decodes to a line break.
	if len(pts) != 4 || skipped != 4 {
		t.Fatalf("parsed %d points and skipped %d, want 4 and 4: %+v", len(pts), skipped, pts)
	}
	p0 := pts[0]
	if p0.Measurement != "node_power" || p0.Time != 1587384000 {
		t.Fatalf("p0 = %+v", p0)
	}
	if v, ok := p0.Tags.Get("rack"); !ok || v != "r 1" {
		t.Fatalf("p0 tags = %+v", p0.Tags)
	}
	if f, _ := p0.Fields["value"].AsFloat(); f != 212.5 {
		t.Fatalf("p0 value = %+v", p0.Fields)
	}
	if pts[1].Time != 7777 {
		t.Fatalf("untimestamped sample got %d, want default 7777", pts[1].Time)
	}
	if pts[2].Tags != nil {
		t.Fatalf("bare metric grew tags: %+v", pts[2].Tags)
	}
	if v, ok := pts[3].Tags.Get("msg"); !ok || v != `a"b\nc` { // \\n is a backslash and an n
		t.Fatalf("escapes: %q", v)
	}

	for _, bad := range []string{
		`{} 1`, `x{y="1} 2`, `x 1 2 3garbage`, `x notanumber`, `x{y=nope} 1`,
	} {
		if _, _, err := ParsePrometheus([]byte(bad), 0); err == nil {
			t.Fatalf("ParsePrometheus(%q) accepted", bad)
		}
	}
}

// TestParsePrometheusAllocatesLinearly bounds what a parse allocates
// per input byte, the way FuzzWALReplay bounds a decode: a parser that
// copies the rest of the body once per line allocates quadratically and
// takes longer than a scrape interval on a body near the limit.
func TestParsePrometheusAllocatesLinearly(t *testing.T) {
	var b strings.Builder
	for i := 0; b.Len() < 128<<10; i++ {
		fmt.Fprintf(&b, "# HELP node_power_%d Node power draw in watts.\nnode_power{host=\"n%d\"} %d.5 1587384000000\n", i, i, i)
	}
	body := []byte(b.String())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pts, _, err := ParsePrometheus(body, 0)
	runtime.ReadMemStats(&after)
	if err != nil || len(pts) == 0 {
		t.Fatalf("parsed %d points: %v", len(pts), err)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(body)+1<<20); grew > limit {
		t.Fatalf("parsing %d bytes allocated %d (limit %d)", len(body), grew, limit)
	}
}

// FuzzParsePrometheus: any body parses or fails without panicking,
// within the per-byte allocation bound, and every sample it returns is
// a valid point with a finite value.
func FuzzParsePrometheus(f *testing.F) {
	for _, seed := range []string{
		"node_power{host=\"n1\",rack=\"r 1\"} 212.5 1587384000000\n",
		"node_power{host=\"n1\"} 123456 170000", // a timestamp cut by a read limit
		"# TYPE x gauge\nx +Inf\ny NaN 1\n\nz{q=\"a\\\"b\\nc\"} -1e3\n",
		"x{y=\"1} 2", "{} 1", "x 1 2 3",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pts, _, err := ParsePrometheus(data, 7777)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > limit {
			t.Fatalf("parsing %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		for _, p := range pts {
			v, _ := p.Fields["value"].AsFloat()
			if err := p.Validate(); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("parsed %+v (validate: %v)", p, err)
			}
		}
	})
}

// TestScrapeReceiverRefusesOversizedBody: a body one byte over the
// limit is refused whole — a scrape error and nothing stored — rather
// than parsed up to the cut, which here would store the last sample at
// 170 s instead of 1,700 s. A body of exactly the limit is scraped.
func TestScrapeReceiverRefusesOversizedBody(t *testing.T) {
	const sample = "m 123456 1700000"
	for _, size := range []int{DefaultMaxPushBody, DefaultMaxPushBody + 1} {
		body := "# " + strings.Repeat("x", size-len(sample)-3) + "\n" + sample
		target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if _, err := w.Write([]byte(body)); err != nil {
				t.Errorf("write exposition: %v", err)
			}
		}))
		db := tsdb.Open(tsdb.Options{})
		p, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.AddSink(NewTSDBSink(db))
		sc := NewScrapeReceiver(ScrapeOptions{Targets: []string{target.URL}})
		p.AddReceiver(sc)
		sc.ScrapeOnce(context.Background())
		target.Close()

		wantPoints, wantErrors := int64(1), int64(0)
		if size > DefaultMaxPushBody {
			wantPoints, wantErrors = 0, 1
		}
		if got := db.Disk().Points; got != wantPoints {
			t.Fatalf("%d-byte body: db has %d points, want %d", size, got, wantPoints)
		}
		if extra := sc.ExtraStats(); extra["scrape_errors"] != wantErrors || extra["samples"] != wantPoints {
			t.Fatalf("%d-byte body: extra = %+v", size, extra)
		}
	}
}

func TestScrapeReceiver(t *testing.T) {
	exposition := "node_power{host=\"n1\"} 250\nnode_power{host=\"n3\"} NaN\nnode_power{host=\"n2\"} 300\n"
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := w.Write([]byte(exposition)); err != nil {
			t.Errorf("write exposition: %v", err)
		}
	}))
	defer target.Close()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer down.Close()

	db := tsdb.Open(tsdb.Options{})
	p, err := New(Options{Rules: mustRules(t, "rename_measurement:node_power=Power", "rename_tag:host=NodeId")})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(NewTSDBSink(db))
	sc := NewScrapeReceiver(ScrapeOptions{Targets: []string{target.URL, down.URL}})
	sc.clk = clock.NewSim(time.Unix(9000, 0))
	p.AddReceiver(sc)

	sc.ScrapeOnce(context.Background())

	if got := db.Disk().Points; got != 2 {
		t.Fatalf("db has %d points, want 2", got)
	}
	// The router renamed measurement and label on the way in.
	res, err := db.Query(`SELECT "value" FROM "Power" GROUP BY "NodeId"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %+v", res.Series)
	}
	extra := sc.ExtraStats()
	if extra["scrapes"] != 2 || extra["scrape_errors"] != 1 || extra["samples"] != 2 || extra["samples_skipped"] != 1 {
		t.Fatalf("extra = %+v", extra)
	}
}

// TestSeriesIdentityThroughReceivers: a label value or a pushed tag
// value holding ',' and '=' stays its own series, apart from the
// series whose tags those bytes would spell out if joined bare.
func TestSeriesIdentityThroughReceivers(t *testing.T) {
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := w.Write([]byte("m{a=\"x,b=y\"} 1\nm{a=\"x\",b=\"y\"} 2\n")); err != nil {
			t.Errorf("write exposition: %v", err)
		}
	}))
	defer target.Close()
	db := tsdb.Open(tsdb.Options{})
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(NewTSDBSink(db))
	sc := NewScrapeReceiver(ScrapeOptions{Targets: []string{target.URL}})
	sc.clk = clock.NewSim(time.Unix(9000, 0))
	p.AddReceiver(sc)
	push := NewPushReceiver()
	p.AddReceiver(push)
	srv := httptest.NewServer(push)
	defer srv.Close()

	sc.ScrapeOnce(context.Background())
	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("a,k=v\\,x\\=y f=1 60\na,k=v,x=y f=2 60\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push status = %d", resp.StatusCode)
	}
	if m, a := db.SeriesCardinality("m"), db.SeriesCardinality("a"); m != 2 || a != 2 {
		t.Fatalf("scraped m has %d series and pushed a %d, want 2 and 2", m, a)
	}
}

// TestScrapeReceiverRunLoop drives the scrape loop through the
// pipeline under a simulated clock and checks it honours cancellation.
func TestScrapeReceiverRunLoop(t *testing.T) {
	hits := make(chan struct{}, 16)
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits <- struct{}{}
		if _, err := w.Write([]byte("m 1\n")); err != nil {
			t.Errorf("write exposition: %v", err)
		}
	}))
	defer target.Close()

	sc := NewScrapeReceiver(ScrapeOptions{Targets: []string{target.URL}, Interval: 5 * time.Millisecond})
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.AddSink(NewTSDBSink(tsdb.Open(tsdb.Options{})))
	p.AddReceiver(sc)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = p.Run(ctx) }()

	for i := 0; i < 2; i++ {
		select {
		case <-hits:
		case <-time.After(5 * time.Second):
			t.Fatal("scrape loop never fired")
		}
	}
	cancel()
	select {
	case <-runDone:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not stop")
	}
}

func mustRules(t *testing.T, specs ...string) []Rule {
	t.Helper()
	rules, err := ParseRules(specs)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}
