package redfish

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"monster/internal/clock"
	"monster/internal/simnode"
)

// BMCOptions tunes a simulated BMC's behaviour.
type BMCOptions struct {
	// Latency is the service time of one request. The paper measured
	// 4.29 s on average on the 13G iDRAC; tests and examples usually
	// scale this down. Zero means no artificial delay.
	Latency time.Duration
	// MaxConcurrent bounds in-flight requests; the iDRAC has limited
	// resources and serializes beyond a small window. Requests beyond
	// the bound queue (and may then hit the client's timeouts). Zero
	// means 2.
	MaxConcurrent int
	// Clock supplies time for latency simulation. Nil means the real
	// clock.
	Clock clock.Clock
	// Seed makes the SetErrorRate failure draws deterministic.
	Seed int64
	// Telemetry enables the Redfish Telemetry Service (newer firmware;
	// the paper's 13G iDRAC predates it). When false the telemetry
	// endpoints return 404, like real old firmware.
	Telemetry bool
}

func (o *BMCOptions) applyDefaults() {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 2
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
}

// BMC is a simulated baseboard management controller for one node. It
// implements http.Handler, serving the Redfish resource subset from the
// node's live sensor state.
type BMC struct {
	node *simnode.Node
	opts BMCOptions
	sem  chan struct{}

	mu          sync.Mutex
	rng         *rand.Rand
	unreachable bool
	errorRate   float64
	requests    int64
	rejected    int64
}

// NewBMC creates a BMC serving the given node's sensors.
func NewBMC(node *simnode.Node, opts BMCOptions) *BMC {
	opts.applyDefaults()
	return &BMC{
		node: node,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxConcurrent),
		rng:  rand.New(rand.NewSource(opts.Seed ^ 0x69445241)),
	}
}

// Node returns the backing simulated node.
func (b *BMC) Node() *simnode.Node { return b.node }

// SetUnreachable makes the BMC drop connections (simulating a
// management-network fault or a wedged controller).
func (b *BMC) SetUnreachable(v bool) {
	b.mu.Lock()
	b.unreachable = v
	b.mu.Unlock()
}

// Unreachable reports whether the BMC is currently dropping
// connections.
func (b *BMC) Unreachable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.unreachable
}

// SetErrorRate makes the fraction r of requests fail with HTTP 500,
// modelling the flaky iDRAC responses the collector's retry mechanism
// exists for.
func (b *BMC) SetErrorRate(r float64) {
	b.mu.Lock()
	b.errorRate = r
	b.mu.Unlock()
}

// Requests reports how many requests this BMC has served (including
// errored ones).
func (b *BMC) Requests() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.requests
}

// ServeHTTP implements http.Handler.
func (b *BMC) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	b.requests++
	failNow := b.errorRate > 0 && b.rng.Float64() < b.errorRate
	b.mu.Unlock()

	// Limited controller resources: occupy a service slot for the whole
	// request, queueing if the controller is saturated.
	b.sem <- struct{}{}
	defer func() { <-b.sem }()

	if d := b.opts.Latency; d > 0 {
		b.opts.Clock.Sleep(d)
	}
	if failNow {
		b.mu.Lock()
		b.rejected++
		b.mu.Unlock()
		http.Error(w, `{"error":{"message":"iDRAC internal error"}}`, http.StatusInternalServerError)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}

	var body interface{}
	switch r.URL.Path {
	case PathRoot:
		body = b.serviceRoot()
	case PathThermal, PathThermal + "/":
		body = b.thermal()
	case PathPower, PathPower + "/":
		body = b.power()
	case PathSystem, PathSystem + "/":
		body = b.system()
	case PathManager, PathManager + "/":
		body = b.manager()
	case PathNIC, PathNIC + "/":
		body = b.ethernetInterface()
	case PathTelemetryService, PathTelemetryService + "/":
		if !b.opts.Telemetry {
			http.Error(w, `{"error":{"message":"resource not found"}}`, http.StatusNotFound)
			return
		}
		body = b.telemetryService()
	case PathMetricReport, PathMetricReport + "/":
		if !b.opts.Telemetry {
			http.Error(w, `{"error":{"message":"resource not found"}}`, http.StatusNotFound)
			return
		}
		body = b.metricReport()
	default:
		http.Error(w, `{"error":{"message":"resource not found"}}`, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(body); err != nil {
		// Client went away mid-response; nothing to do.
		_ = err
	}
}

func (b *BMC) serviceRoot() ServiceRoot {
	return ServiceRoot{
		ODataType:      "#ServiceRoot.v1_3_0.ServiceRoot",
		ID:             "RootService",
		Name:           "Root Service",
		RedfishVersion: "1.4.0",
		Chassis:        ODataID{"/redfish/v1/Chassis"},
		Systems:        ODataID{"/redfish/v1/Systems"},
		Managers:       ODataID{"/redfish/v1/Managers"},
	}
}

func statusOf(h simnode.Health, state string) Status {
	return Status{Health: string(h), State: state}
}

func (b *BMC) thermal() Thermal {
	rd := b.node.Readings()
	tempStatus := func(c float64) Status {
		st := Status{Health: string(simnode.HealthOK), State: "Enabled"}
		if c >= 95 {
			st.Health = string(simnode.HealthCritical)
		} else if c >= 85 {
			st.Health = string(simnode.HealthWarning)
		}
		return st
	}
	th := Thermal{
		ODataType: "#Thermal.v1_4_0.Thermal",
		ID:        "Thermal",
		Name:      "Thermal",
	}
	names := []string{"CPU1 Temp", "CPU2 Temp"}
	for i, name := range names {
		th.Temperatures = append(th.Temperatures, Temperature{
			Name:                   name,
			MemberID:               fmt.Sprintf("iDRAC.Embedded.1#CPU%dTemp", i+1),
			ReadingCelsius:         round1(rd.CPUTempC[i]),
			UpperThresholdCritical: 95,
			UpperThresholdFatal:    100,
			Status:                 tempStatus(rd.CPUTempC[i]),
		})
	}
	th.Temperatures = append(th.Temperatures, Temperature{
		Name:                   "System Board Inlet Temp",
		MemberID:               "iDRAC.Embedded.1#SystemBoardInletTemp",
		ReadingCelsius:         round1(rd.InletTempC),
		UpperThresholdCritical: 42,
		UpperThresholdFatal:    47,
		Status:                 tempStatus(rd.InletTempC + 50), // inlet thresholds differ; keep OK below 35
	})
	// Correct the inlet status: it has its own thresholds.
	inlet := &th.Temperatures[len(th.Temperatures)-1]
	inlet.Status = Status{Health: string(simnode.HealthOK), State: "Enabled"}
	if rd.InletTempC >= 42 {
		inlet.Status.Health = string(simnode.HealthCritical)
	} else if rd.InletTempC >= 38 {
		inlet.Status.Health = string(simnode.HealthWarning)
	}
	for i := 0; i < 4; i++ {
		th.Fans = append(th.Fans, Fan{
			Name:         fmt.Sprintf("System Board Fan%d", i+1),
			MemberID:     fmt.Sprintf("0x17||Fan.Embedded.%d", i+1),
			Reading:      float64(int(rd.FanRPM[i])),
			ReadingUnits: "RPM",
			Status:       Status{Health: string(simnode.HealthOK), State: "Enabled"},
		})
	}
	return th
}

func (b *BMC) power() Power {
	rd := b.node.Readings()
	p := Power{
		ODataType: "#Power.v1_4_0.Power",
		ID:        "Power",
		Name:      "Power",
		PowerControl: []PowerControl{{
			Name:               "System Power Control",
			MemberID:           "PowerControl",
			PowerConsumedWatts: round1(rd.PowerW),
			PowerCapacityWatts: 498,
		}},
	}
	names := []string{"CPU1 VCORE PG", "CPU2 VCORE PG", "System Board 12V"}
	for i, v := range rd.VoltageV {
		name := fmt.Sprintf("Voltage %d", i+1)
		if i < len(names) {
			name = names[i]
		}
		p.Voltages = append(p.Voltages, Voltage{
			Name:         name,
			MemberID:     fmt.Sprintf("Volt%d", i+1),
			ReadingVolts: round3(v),
			Status:       Status{Health: string(simnode.HealthOK), State: "Enabled"},
		})
	}
	return p
}

func (b *BMC) system() System {
	rd := b.node.Readings()
	cfg := b.node.Config()
	return System{
		ODataType:  "#ComputerSystem.v1_5_0.ComputerSystem",
		ID:         "System.Embedded.1",
		HostName:   cfg.Name,
		Model:      "PowerEdge C6320",
		PowerState: rd.PowerState,
		Status:     statusOf(rd.HostHealth, "Enabled"),
		ProcessorSummary: ProcessorSummary{
			Count:  2,
			Model:  "Intel(R) Xeon(R) CPU E5-2695 v4 @ 2.10GHz",
			Status: statusOf(rd.HostHealth, "Enabled"),
		},
		MemorySummary: MemorySummary{
			TotalSystemMemoryGiB: cfg.MemoryGB,
			Status:               statusOf(simnode.HealthOK, "Enabled"),
		},
	}
}

func (b *BMC) ethernetInterface() EthernetInterface {
	net := b.node.Network()
	rd := b.node.Readings()
	link := "LinkUp"
	if rd.PowerState != "On" {
		link = "LinkDown"
	}
	return EthernetInterface{
		ODataType:  "#EthernetInterface.v1_4_0.EthernetInterface",
		ID:         "NIC.Embedded.1",
		Name:       "Omni-Path Fabric Interface",
		SpeedMbps:  100000,
		LinkStatus: link,
		Status:     Status{Health: "OK", State: "Enabled"},
		Oem:        NICOem{RxBps: round1(net.RxBps), TxBps: round1(net.TxBps)},
	}
}

func (b *BMC) manager() Manager {
	rd := b.node.Readings()
	return Manager{
		ODataType:       "#Manager.v1_3_3.Manager",
		ID:              "iDRAC.Embedded.1",
		Name:            "Manager",
		ManagerType:     "BMC",
		Model:           "13G DCS",
		FirmwareVersion: FirmwareVersion,
		Status:          statusOf(rd.BMCHealth, "Enabled"),
	}
}

func round1(v float64) float64 { return float64(int(v*10+0.5)) / 10 }
func round3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }
