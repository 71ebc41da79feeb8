package collector

import (
	"fmt"
	"strings"
	"time"

	"monster/internal/scheduler"
	"monster/internal/simnode"
	"monster/internal/tsdb"
)

// SchemaVersion selects the database layout the collector writes.
//
// SchemaV1 ("previous schema", Section IV-B2) reproduces the paper's
// original design — the one whose performance motivated the redesign:
// per-metric measurements with threshold metadata stored as fields,
// health recorded every cycle as strings, job timestamps as RFC3339
// date strings, one dedicated measurement per job, and a second
// "unified" copy of the node metrics coexisting in the same database.
//
// SchemaV2 ("optimized schema") is the paper's redesign: consolidated
// measurements (Health, Power, Thermal, UGE, JobsInfo, NodeJobs),
// binary integer status codes, epoch-integer timestamps, and health
// stored only on state transitions.
type SchemaVersion int

// Schema versions.
const (
	SchemaV2 SchemaVersion = iota // optimized (default)
	SchemaV1                      // previous
)

// String implements fmt.Stringer.
func (v SchemaVersion) String() string {
	if v == SchemaV1 {
		return "previous"
	}
	return "optimized"
}

// NodeSample is one node's out-of-band sweep result, already decoded
// from the four Redfish category payloads.
type NodeSample struct {
	Node       string // NodeId tag value (management address, as in Fig 4)
	Time       int64
	OK         bool // false when the sweep failed (timeouts exhausted)
	BMCHealth  simnode.Health
	HostHealth simnode.Health
	CPUTempC   [2]float64
	InletTempC float64
	FanRPM     [4]float64
	PowerW     float64
	HasNet     bool // NIC statistics collected (CollectNetwork)
	NICRxBps   float64
	NICTxBps   float64
}

// ThermalLabels are the Label tag values of the Thermal measurement.
var ThermalLabels = []string{"CPU1Temp", "CPU2Temp", "InletTemp", "FanSpeed1", "FanSpeed2", "FanSpeed3", "FanSpeed4"}

func (s *NodeSample) thermalReadings() []float64 {
	return []float64{
		s.CPUTempC[0], s.CPUTempC[1], s.InletTempC,
		s.FanRPM[0], s.FanRPM[1], s.FanRPM[2], s.FanRPM[3],
	}
}

// bmcPointsV2 renders a node sample into the optimized schema.
// healthChanged reports, per label ("BMC" or "System"), whether the
// status differs from the previous cycle — only transitions are stored.
func bmcPointsV2(s NodeSample, healthChanged func(label string, code int64) bool) []tsdb.Point {
	if !s.OK {
		return nil
	}
	pts := make([]tsdb.Point, 0, 10)
	for i, label := range ThermalLabels {
		pts = append(pts, tsdb.Point{
			Measurement: "Thermal",
			Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}, {Key: "Label", Value: label}},
			Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(s.thermalReadings()[i])},
			Time:        s.Time,
		})
	}
	pts = append(pts, tsdb.Point{
		Measurement: "Power",
		Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}, {Key: "Label", Value: "NodePower"}},
		Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(s.PowerW)},
		Time:        s.Time,
	})
	if s.HasNet {
		bps := [...]float64{s.NICRxBps, s.NICTxBps}
		for i, label := range [...]string{"NICRx", "NICTx"} {
			pts = append(pts, tsdb.Point{
				Measurement: "Network",
				Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}, {Key: "Label", Value: label}},
				Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(bps[i])},
				Time:        s.Time,
			})
		}
	}
	health := [...]simnode.Health{s.BMCHealth, s.HostHealth}
	for i, label := range [...]string{"BMC", "System"} {
		code := health[i].Code()
		if healthChanged != nil && !healthChanged(label, code) {
			continue
		}
		pts = append(pts, tsdb.Point{
			Measurement: "Health",
			Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}, {Key: "Label", Value: label}},
			Fields:      map[string]tsdb.Value{"Status": tsdb.Int(code)},
			Time:        s.Time,
		})
	}
	return pts
}

// bmcPointsV1 renders the same sample into the previous schema: one
// measurement per metric, threshold metadata as fields, string health
// every cycle, plus the coexisting "unified" duplicate.
func bmcPointsV1(s NodeSample) []tsdb.Point {
	if !s.OK {
		return nil
	}
	var pts []tsdb.Point
	thresholds := map[string][2]float64{
		"CPU1Temp": {85, 95}, "CPU2Temp": {85, 95}, "InletTemp": {38, 42},
		"FanSpeed1": {0, 0}, "FanSpeed2": {0, 0}, "FanSpeed3": {0, 0}, "FanSpeed4": {0, 0},
	}
	units := map[string]string{
		"CPU1Temp": "Celsius", "CPU2Temp": "Celsius", "InletTemp": "Celsius",
		"FanSpeed1": "RPM", "FanSpeed2": "RPM", "FanSpeed3": "RPM", "FanSpeed4": "RPM",
	}
	for i, label := range ThermalLabels {
		th := thresholds[label]
		pts = append(pts, tsdb.Point{
			Measurement: label, // per-metric measurement
			Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}},
			Fields: map[string]tsdb.Value{
				"Reading":           tsdb.Float(s.thermalReadings()[i]),
				"WarningThreshold":  tsdb.Float(th[0]),
				"CriticalThreshold": tsdb.Float(th[1]),
				"Units":             tsdb.Str(units[label]),
				"CollectedAt":       tsdb.Str(tsdb.FormatTime(s.Time)), // date string, not epoch
			},
			Time: s.Time,
		})
	}
	pts = append(pts, tsdb.Point{
		Measurement: "NodePower",
		Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}},
		Fields: map[string]tsdb.Value{
			"Reading":     tsdb.Float(s.PowerW),
			"Units":       tsdb.Str("Watts"),
			"CollectedAt": tsdb.Str(tsdb.FormatTime(s.Time)),
		},
		Time: s.Time,
	})
	// Health stored every cycle, as strings.
	pts = append(pts,
		tsdb.Point{
			Measurement: "BMCHealth",
			Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}},
			Fields:      map[string]tsdb.Value{"Status": tsdb.Str(string(s.BMCHealth))},
			Time:        s.Time,
		},
		tsdb.Point{
			Measurement: "SystemHealth",
			Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}},
			Fields:      map[string]tsdb.Value{"Status": tsdb.Str(string(s.HostHealth))},
			Time:        s.Time,
		},
	)
	// The coexisting second version: a unified measurement duplicating
	// every reading (Section IV-B2: "Both versions of the schema
	// coexist in the same database").
	unified := map[string]tsdb.Value{"NodePower": tsdb.Float(s.PowerW)}
	for i, label := range ThermalLabels {
		unified[label] = tsdb.Float(s.thermalReadings()[i])
	}
	unified["BMCHealth"] = tsdb.Str(string(s.BMCHealth))
	unified["SystemHealth"] = tsdb.Str(string(s.HostHealth))
	pts = append(pts, tsdb.Point{
		Measurement: "NodeMetrics",
		Tags:        tsdb.Tags{{Key: "NodeId", Value: s.Node}},
		Fields:      unified,
		Time:        s.Time,
	})
	return pts
}

// ugePointsV2 renders host metrics into the optimized UGE measurement.
func ugePointsV2(h scheduler.HostEntry, node string, t int64) []tsdb.Point {
	memUsage := 0.0
	if h.MemTotalGB > 0 {
		memUsage = h.MemUsedGB / h.MemTotalGB * 100
	}
	mk := func(label string, v float64) tsdb.Point {
		return tsdb.Point{
			Measurement: "UGE",
			Tags:        tsdb.Tags{{Key: "NodeId", Value: node}, {Key: "Label", Value: label}},
			Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(v)},
			Time:        t,
		}
	}
	return []tsdb.Point{
		mk("CPUUsage", h.CPUUsage*100),
		mk("MemUsage", memUsage),
	}
}

// fsPointsV2 stores the in-band filesystem throughput the resource
// manager reports (the paper's future-work metric).
func fsPointsV2(h scheduler.HostEntry, node string, t int64) []tsdb.Point {
	mk := func(label string, v float64) tsdb.Point {
		return tsdb.Point{
			Measurement: "Filesystem",
			Tags:        tsdb.Tags{{Key: "NodeId", Value: node}, {Key: "Label", Value: label}},
			Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(v)},
			Time:        t,
		}
	}
	return []tsdb.Point{
		mk("ReadMBps", h.IOReadMBps),
		mk("WriteMBps", h.IOWriteMBps),
	}
}

// ugePointsV1 renders host metrics into the previous schema: one
// measurement per metric with redundant totals and date strings.
func ugePointsV1(h scheduler.HostEntry, node string, t int64) []tsdb.Point {
	mk := func(m string, fields map[string]tsdb.Value) tsdb.Point {
		fields["CollectedAt"] = tsdb.Str(tsdb.FormatTime(t))
		return tsdb.Point{
			Measurement: m,
			Tags:        tsdb.Tags{{Key: "NodeId", Value: node}},
			Fields:      fields,
			Time:        t,
		}
	}
	return []tsdb.Point{
		mk("CPUUsage", map[string]tsdb.Value{"Reading": tsdb.Float(h.CPUUsage * 100)}),
		mk("MemoryUsed", map[string]tsdb.Value{"Reading": tsdb.Float(h.MemUsedGB), "Total": tsdb.Float(h.MemTotalGB), "Units": tsdb.Str("GB")}),
		mk("MemoryFree", map[string]tsdb.Value{"Reading": tsdb.Float(h.MemTotalGB - h.MemUsedGB), "Units": tsdb.Str("GB")}),
		mk("UsedSwap", map[string]tsdb.Value{"Reading": tsdb.Float(h.SwapUsedGB), "Units": tsdb.Str("GB")}),
		mk("FreeSwap", map[string]tsdb.Value{"Reading": tsdb.Float(h.SwapTotalGB - h.SwapUsedGB), "Units": tsdb.Str("GB")}),
	}
}

// nodeJobsPoint stores the node→jobs correlation. InfluxDB has no array
// type, so the job list is stringified (Fig 5).
func nodeJobsPoint(node string, jobKeys []string, t int64) tsdb.Point {
	quoted := make([]string, len(jobKeys))
	for i, k := range jobKeys {
		quoted[i] = "'" + k + "'"
	}
	return tsdb.Point{
		Measurement: "NodeJobs",
		Tags:        tsdb.Tags{{Key: "NodeId", Value: node}},
		Fields:      map[string]tsdb.Value{"JobList": tsdb.Str("[" + strings.Join(quoted, ", ") + "]")},
		Time:        t,
	}
}

// JobInfo is the collector's derived record for one job (pre-processing
// output: epoch timestamps, core/node counts summarized from the job
// list, estimated finish time).
type JobInfo struct {
	Key        string
	JobID      int64
	TaskID     int
	User       string
	Name       string
	Queue      string
	SubmitTime int64
	StartTime  int64
	FinishTime int64 // 0 while running; estimated on disappearance; exact from accounting
	Estimated  bool  // FinishTime is a diff-based estimate
	Slots      int
	NodeCount  int
}

// jobsInfoPointV2 renders one job into the consolidated JobsInfo
// measurement with integer epochs.
func jobsInfoPointV2(ji JobInfo, t int64) tsdb.Point {
	fields := map[string]tsdb.Value{
		"User":       tsdb.Str(ji.User),
		"JobName":    tsdb.Str(ji.Name),
		"Queue":      tsdb.Str(ji.Queue),
		"SubmitTime": tsdb.Int(ji.SubmitTime),
		"StartTime":  tsdb.Int(ji.StartTime),
		"Slots":      tsdb.Int(int64(ji.Slots)),
		"NodeCount":  tsdb.Int(int64(ji.NodeCount)),
	}
	if ji.FinishTime > 0 {
		fields["FinishTime"] = tsdb.Int(ji.FinishTime)
		fields["Estimated"] = tsdb.Bool(ji.Estimated)
	}
	return tsdb.Point{
		Measurement: "JobsInfo",
		Tags:        tsdb.Tags{{Key: "JobId", Value: ji.Key}},
		Fields:      fields,
		Time:        t,
	}
}

// jobsInfoPointsV1 renders one job into the previous schema: a
// dedicated measurement per job ("each job information is stored into a
// dedicated measurement") with date strings.
func jobsInfoPointsV1(ji JobInfo, t int64) tsdb.Point {
	fields := map[string]tsdb.Value{
		"User":       tsdb.Str(ji.User),
		"JobName":    tsdb.Str(ji.Name),
		"Queue":      tsdb.Str(ji.Queue),
		"SubmitTime": tsdb.Str(tsdb.FormatTime(ji.SubmitTime)),
		"StartTime":  tsdb.Str(tsdb.FormatTime(ji.StartTime)),
		"Slots":      tsdb.Int(int64(ji.Slots)),
		"NodeCount":  tsdb.Int(int64(ji.NodeCount)),
	}
	if ji.FinishTime > 0 {
		fields["FinishTime"] = tsdb.Str(tsdb.FormatTime(ji.FinishTime))
	}
	return tsdb.Point{
		Measurement: fmt.Sprintf("Job%s", ji.Key),
		Tags:        tsdb.Tags{{Key: "Owner", Value: ji.User}},
		Fields:      fields,
		Time:        t,
	}
}

// ParseJobList decodes the stringified job list of a NodeJobs point
// back into job keys (the inverse of nodeJobsPoint, used by analysis
// consumers).
func ParseJobList(s string) []string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		p = strings.Trim(p, "'")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// epoch converts a time to Unix seconds, mapping the zero time to 0.
func epoch(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}
