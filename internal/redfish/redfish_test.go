package redfish

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monster/internal/clock"
	"monster/internal/simnode"
)

func newTestBMC(t *testing.T, opts BMCOptions) (*simnode.Node, *BMC) {
	t.Helper()
	node := simnode.New(simnode.Config{Name: "1-1", Addr: "10.101.1.1", Seed: 1})
	node.Step(10 * time.Minute)
	return node, NewBMC(node, opts)
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "https://10.101.1.1"+path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestBMCServesServiceRoot(t *testing.T) {
	_, bmc := newTestBMC(t, BMCOptions{})
	rec := get(t, bmc, PathRoot)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var root ServiceRoot
	if err := json.Unmarshal(rec.Body.Bytes(), &root); err != nil {
		t.Fatal(err)
	}
	if root.RedfishVersion == "" || root.Chassis.ID == "" {
		t.Fatalf("incomplete root: %+v", root)
	}
}

func TestBMCThermalPayloadShape(t *testing.T) {
	node, bmc := newTestBMC(t, BMCOptions{})
	rec := get(t, bmc, PathThermal)
	var th Thermal
	if err := json.Unmarshal(rec.Body.Bytes(), &th); err != nil {
		t.Fatal(err)
	}
	// Table I: CPU1, CPU2, inlet temperature; four fans.
	if len(th.Temperatures) != 3 {
		t.Fatalf("temperatures = %d, want 3", len(th.Temperatures))
	}
	if len(th.Fans) != 4 {
		t.Fatalf("fans = %d, want 4", len(th.Fans))
	}
	rd := node.Readings()
	if diff := th.Temperatures[0].ReadingCelsius - rd.CPUTempC[0]; diff > 0.2 || diff < -0.2 {
		t.Fatalf("CPU1 reading %v does not track node state %v", th.Temperatures[0].ReadingCelsius, rd.CPUTempC[0])
	}
	if th.Fans[0].ReadingUnits != "RPM" {
		t.Fatalf("fan units = %q", th.Fans[0].ReadingUnits)
	}
}

func TestBMCPowerPayload(t *testing.T) {
	node, bmc := newTestBMC(t, BMCOptions{})
	rec := get(t, bmc, PathPower)
	var p Power
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.PowerControl) != 1 {
		t.Fatalf("power control entries = %d", len(p.PowerControl))
	}
	rd := node.Readings()
	if diff := p.PowerControl[0].PowerConsumedWatts - rd.PowerW; diff > 2 || diff < -2 {
		t.Fatalf("power %v vs node %v", p.PowerControl[0].PowerConsumedWatts, rd.PowerW)
	}
	if len(p.Voltages) != 3 {
		t.Fatalf("voltages = %d", len(p.Voltages))
	}
}

func TestBMCSystemAndManagerHealth(t *testing.T) {
	node, bmc := newTestBMC(t, BMCOptions{})
	var sys System
	if err := json.Unmarshal(get(t, bmc, PathSystem).Body.Bytes(), &sys); err != nil {
		t.Fatal(err)
	}
	if sys.Status.Health != "OK" || sys.PowerState != "On" {
		t.Fatalf("system = %+v", sys.Status)
	}
	var man Manager
	if err := json.Unmarshal(get(t, bmc, PathManager).Body.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	if man.FirmwareVersion != FirmwareVersion {
		t.Fatalf("firmware = %q", man.FirmwareVersion)
	}

	node.Inject(simnode.FaultBMCDegrade)
	if err := json.Unmarshal(get(t, bmc, PathManager).Body.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	if man.Status.Health != "Warning" {
		t.Fatalf("degraded BMC health = %q", man.Status.Health)
	}
}

func TestBMCNotFoundAndMethodNotAllowed(t *testing.T) {
	_, bmc := newTestBMC(t, BMCOptions{})
	if rec := get(t, bmc, "/redfish/v1/Nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "https://10.101.1.1"+PathSystem, nil)
	rec := httptest.NewRecorder()
	bmc.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
}

func TestBMCErrorRate(t *testing.T) {
	_, bmc := newTestBMC(t, BMCOptions{Seed: 7})
	bmc.SetErrorRate(1.0)
	if rec := get(t, bmc, PathSystem); rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	bmc.SetErrorRate(0)
	if rec := get(t, bmc, PathSystem); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
}

func TestBMCLatencyDelaysResponse(t *testing.T) {
	_, bmc := newTestBMC(t, BMCOptions{Latency: 30 * time.Millisecond})
	startT := time.Now()
	get(t, bmc, PathSystem)
	if elapsed := time.Since(startT); elapsed < 25*time.Millisecond {
		t.Fatalf("request returned in %v, latency not applied", elapsed)
	}
}

func TestBMCConcurrencyLimitQueues(t *testing.T) {
	_, bmc := newTestBMC(t, BMCOptions{Latency: 20 * time.Millisecond, MaxConcurrent: 1})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, bmc, PathSystem)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("3 serialized 20ms requests finished in %v", elapsed)
	}
	if bmc.Requests() != 3 {
		t.Fatalf("requests = %d", bmc.Requests())
	}
}

func TestFleetRoutesByHost(t *testing.T) {
	nodes, fleet := NewTestFleet(3, clock.NewReal())
	nodes.Step(time.Minute)
	if fleet.Len() != 3 {
		t.Fatalf("fleet len = %d", fleet.Len())
	}
	client := NewClient(ClientOptions{HTTPClient: fleet.Client(), RequestTimeout: 2 * time.Second})
	sys, err := client.System(context.Background(), "10.101.1.2")
	if err != nil {
		t.Fatal(err)
	}
	if sys.HostName != "1-2" {
		t.Fatalf("hostname = %q, want 1-2", sys.HostName)
	}
}

func TestFleetUnknownHost(t *testing.T) {
	_, fleet := NewTestFleet(1, clock.NewReal())
	client := NewClient(ClientOptions{HTTPClient: fleet.Client(), RequestTimeout: time.Second, Retries: 1, RetryBackoff: time.Millisecond})
	_, err := client.System(context.Background(), "10.9.9.9")
	if err == nil || !strings.Contains(err.Error(), "no route to host") {
		t.Fatalf("err = %v", err)
	}
	st := client.Stats()
	if st.Failures != 1 || st.Attempts != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientRetriesTransientErrors(t *testing.T) {
	nodes, fleet := NewTestFleet(1, clock.NewReal())
	_ = nodes
	bmc, _ := fleet.BMC("10.101.1.1")
	// Fail roughly half the requests; retries should still succeed most
	// of the time across many calls.
	bmc.SetErrorRate(0.5)
	client := NewClient(ClientOptions{
		HTTPClient:     fleet.Client(),
		RequestTimeout: time.Second,
		Retries:        5,
		RetryBackoff:   time.Millisecond,
	})
	ok := 0
	for i := 0; i < 20; i++ {
		if _, err := client.Power(context.Background(), "10.101.1.1"); err == nil {
			ok++
		}
	}
	if ok < 18 {
		t.Fatalf("only %d/20 requests survived retries", ok)
	}
	if client.Stats().Retries == 0 {
		t.Fatal("no retries recorded despite 50% error rate")
	}
}

func TestClientTimeoutOnUnresponsiveBMC(t *testing.T) {
	_, fleet := NewTestFleet(1, clock.NewReal())
	bmc, _ := fleet.BMC("10.101.1.1")
	bmc.opts.Latency = 5 * time.Second // far beyond the request timeout
	client := NewClient(ClientOptions{
		HTTPClient:     fleet.Client(),
		RequestTimeout: 50 * time.Millisecond,
		Retries:        1,
		RetryBackoff:   time.Millisecond,
	})
	start := time.Now()
	_, err := client.Thermal(context.Background(), "10.101.1.1")
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestClientUnreachableBMC(t *testing.T) {
	_, fleet := NewTestFleet(1, clock.NewReal())
	bmc, _ := fleet.BMC("10.101.1.1")
	bmc.SetUnreachable(true)
	client := NewClient(ClientOptions{HTTPClient: fleet.Client(), RequestTimeout: time.Second, Retries: 1, RetryBackoff: time.Millisecond})
	if _, err := client.Manager(context.Background(), "10.101.1.1"); err == nil {
		t.Fatal("expected connection error")
	}
	bmc.SetUnreachable(false)
	if _, err := client.Manager(context.Background(), "10.101.1.1"); err != nil {
		t.Fatalf("recovered BMC still failing: %v", err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, fleet := NewTestFleet(1, clock.NewReal())
	bmc, _ := fleet.BMC("10.101.1.1")
	bmc.opts.Latency = 5 * time.Second
	client := NewClient(ClientOptions{HTTPClient: fleet.Client(), RequestTimeout: 10 * time.Second, Retries: 3, RetryBackoff: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := client.GetJSON(ctx, URL("10.101.1.1", PathThermal), nil)
	if err == nil {
		t.Fatal("expected cancellation")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not shortcut retries")
	}
}

func TestCategoriesCount(t *testing.T) {
	if got := len(Categories()); got != 4 {
		t.Fatalf("categories = %d, want 4 (Table I)", got)
	}
	// 467 nodes × 4 categories = 1868 request URLs per sweep (paper §III-B1).
	if got := 467 * len(Categories()); got != 1868 {
		t.Fatalf("request pool = %d, want 1868", got)
	}
}

func TestURLShape(t *testing.T) {
	got := URL("10.101.1.1", PathThermal)
	want := "https://10.101.1.1/redfish/v1/Chassis/System.Embedded.1/Thermal"
	if got != want {
		t.Fatalf("URL = %q, want %q", got, want)
	}
}

func TestTelemetryServiceGatedByFirmware(t *testing.T) {
	node := simnode.New(simnode.Config{Name: "1-1", Addr: "10.101.1.1", Seed: 1})
	node.Step(5 * time.Minute)
	old := NewBMC(node, BMCOptions{})
	if rec := get(t, old, PathMetricReport); rec.Code != http.StatusNotFound {
		t.Fatalf("13G firmware served telemetry: %d", rec.Code)
	}
	if rec := get(t, old, PathTelemetryService); rec.Code != http.StatusNotFound {
		t.Fatalf("13G firmware served telemetry service: %d", rec.Code)
	}
	neu := NewBMC(node, BMCOptions{Telemetry: true})
	rec := get(t, neu, PathTelemetryService)
	if rec.Code != http.StatusOK {
		t.Fatalf("telemetry service = %d", rec.Code)
	}
}

func TestMetricReportCarriesWholeNode(t *testing.T) {
	node := simnode.New(simnode.Config{Name: "1-1", Addr: "10.101.1.1", Seed: 2})
	node.SetDemand(0.8, 64, 2)
	node.Step(10 * time.Minute)
	bmc := NewBMC(node, BMCOptions{Telemetry: true})
	var report MetricReport
	if err := json.Unmarshal(get(t, bmc, PathMetricReport).Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	// 3 temps + 4 fans + 2 NIC rates + power + 2 healths + power state = 13 metrics.
	if len(report.MetricValues) != 13 {
		t.Fatalf("metric values = %d, want 13", len(report.MetricValues))
	}
	rd := node.Readings()
	if v, ok := report.Value(MetricCPU1Temp); !ok || v < rd.CPUTempC[0]-1 || v > rd.CPUTempC[0]+1 {
		t.Fatalf("cpu1 = %v (node %v)", v, rd.CPUTempC[0])
	}
	if v, ok := report.Value(MetricPower); !ok || v < 50 {
		t.Fatalf("power = %v", v)
	}
	if h, ok := report.StringValue(MetricHostHealth); !ok || h != "OK" {
		t.Fatalf("health = %q", h)
	}
	if _, ok := report.Value("Nope"); ok {
		t.Fatal("unknown metric id resolved")
	}
	if _, ok := report.Value(MetricPowerState); ok {
		t.Fatal("non-numeric metric parsed as float")
	}
}

func TestClientMetricReport(t *testing.T) {
	nodes := simnode.NewFleet(2, 1)
	fleet := NewFleet(nodes, BMCOptions{Telemetry: true, MaxConcurrent: 4})
	nodes.Step(time.Minute)
	client := NewClient(ClientOptions{HTTPClient: fleet.Client(), RequestTimeout: 2 * time.Second})
	report, err := client.MetricReport(context.Background(), "10.101.1.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.MetricValues) != 13 {
		t.Fatalf("metric values = %d", len(report.MetricValues))
	}
}

// TestClientNoRetriesSentinel pins the zero-vs-unset contract: a zero
// Retries selects the default of 2 (three attempts), while the
// explicit NoRetries sentinel really means one attempt. Before the
// sentinel existed, "no retries" was silently impossible to configure.
func TestClientNoRetriesSentinel(t *testing.T) {
	attempts := func(opts ClientOptions) int64 {
		_, fleet := NewTestFleet(1, clock.NewReal())
		bmc, _ := fleet.BMC("10.101.1.1")
		bmc.SetUnreachable(true)
		opts.HTTPClient = fleet.Client()
		opts.RequestTimeout = time.Second
		client := NewClient(opts)
		if _, err := client.Power(context.Background(), "10.101.1.1"); err == nil {
			t.Fatal("unreachable BMC answered")
		}
		return client.Stats().Attempts
	}
	if got := attempts(ClientOptions{RetryBackoff: NoRetryBackoff}); got != 3 {
		t.Fatalf("default Retries made %d attempts, want 3 (1 + 2 retries)", got)
	}
	if got := attempts(ClientOptions{Retries: NoRetries}); got != 1 {
		t.Fatalf("NoRetries made %d attempts, want exactly 1", got)
	}
	if got := attempts(ClientOptions{Retries: -7}); got != 1 {
		t.Fatalf("negative Retries made %d attempts, want exactly 1", got)
	}
}

// TestClientBackoffSchedule pins the retry delay schedule: exponential
// from the base, jitter within [d/2, d), capped at MaxRetryBackoff,
// and a pure function of (url, attempt) so concurrent collectors are
// reproducible.
func TestClientBackoffSchedule(t *testing.T) {
	c := NewClient(ClientOptions{RetryBackoff: 100 * time.Millisecond})
	const url = "https://10.101.1.1/redfish/v1/Chassis/System.Embedded.1/Power"

	var prev time.Duration
	for attempt := 1; attempt <= 12; attempt++ {
		d := c.backoff(url, attempt)
		nominal := 100 * time.Millisecond << (attempt - 1)
		if nominal > MaxRetryBackoff || nominal <= 0 {
			nominal = MaxRetryBackoff
		}
		if d < nominal/2 || d >= nominal {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, nominal/2, nominal)
		}
		if d2 := c.backoff(url, attempt); d2 != d {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d, d2)
		}
		if attempt > 1 && d < prev/2 {
			t.Fatalf("attempt %d: backoff %v collapsed below half of previous %v", attempt, d, prev)
		}
		prev = d
	}
	if d := c.backoff(url, 1000); d >= MaxRetryBackoff {
		t.Fatalf("huge attempt: backoff %v not capped below %v", d, MaxRetryBackoff)
	}
	if a, b := c.backoff(url, 3), c.backoff(url+"x", 3); a == b {
		t.Fatalf("distinct URLs produced identical jitter %v — fleet retries in lockstep", a)
	}

	// Explicitly-disabled backoff retries immediately.
	none := NewClient(ClientOptions{RetryBackoff: NoRetryBackoff})
	if d := none.backoff(url, 1); d != 0 {
		t.Fatalf("NoRetryBackoff produced delay %v", d)
	}
}

// TestClientBodyLimit: a resource body of exactly maxResourceBody bytes
// decodes; one byte more fails that GET whole and leaves out untouched.
func TestClientBodyLimit(t *testing.T) {
	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(*body.Load())
	}))
	defer srv.Close()
	padded := func(doc string, n int) *[]byte {
		b := append([]byte(doc), strings.Repeat(" ", n-len(doc))...)
		return &b
	}
	c := NewClient(ClientOptions{HTTPClient: srv.Client(), Retries: NoRetries})
	body.Store(padded(`{"Id":"Thermal"}`, maxResourceBody))
	out := map[string]any{}
	if err := c.GetJSON(context.Background(), srv.URL, &out); err != nil || out["Id"] != "Thermal" {
		t.Fatalf("body at the limit: %v, err %v", out, err)
	}
	body.Store(padded(`{"Id":"Power"}`, maxResourceBody+1))
	out = map[string]any{"kept": true}
	err := c.GetJSON(context.Background(), srv.URL, &out)
	if err == nil || !strings.Contains(err.Error(), "body over") {
		t.Fatalf("body over the limit: err %v", err)
	}
	if len(out) != 1 || out["kept"] != true {
		t.Fatalf("a refused body was decoded: %v", out)
	}
	if st := c.Stats(); st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
}
