// Package builder implements MonSTer's Metrics Builder (Section III-C
// of the paper): the middleware between the time-series database and
// analysis consumers such as HiperJobViz. A consumer asks for a time
// range, a downsampling interval, and an aggregate; the builder
// generates the InfluxQL queries, fans them out over the storage
// engine, merges the per-series answers into one JSON document, and
// optionally compresses it for transport.
//
// The package is organized as the paper's optimization ladder:
//
//   - the previous builder (Options.Concurrent=false) issues one query
//     per (node, metric) pair, serially — the Fig 10/11 baseline;
//   - the optimized builder batches by measurement with a multi-node
//     regex predicate and runs the batch on a pool of 8 workers
//     (Fig 14/15);
//   - Compress adds zlib transport compression (Fig 18/19).
package builder

import (
	"fmt"
	"strings"
)

// Metric identifies one per-node series: a measurement and its Label
// tag value in the optimized schema (e.g. Power/NodePower).
type Metric struct {
	Measurement string `json:"measurement"`
	Label       string `json:"label"`
}

// Name is the canonical "Measurement/Label" form used as the key of
// NodeSeries.Metrics and in the HTTP API's metrics parameter.
func (m Metric) Name() string { return m.Measurement + "/" + m.Label }

// ParseMetric parses the "Measurement/Label" form.
func ParseMetric(s string) (Metric, error) {
	meas, label, ok := strings.Cut(s, "/")
	if !ok || meas == "" || label == "" {
		return Metric{}, fmt.Errorf("builder: bad metric %q (want Measurement/Label)", s)
	}
	return Metric{Measurement: meas, Label: label}, nil
}

// DefaultMetrics is the full per-node metric set of the paper's
// Tables I and II: seven thermal series, node power, and the two
// UGE-reported usage series.
func DefaultMetrics() []Metric {
	return []Metric{
		{Measurement: "Thermal", Label: "CPU1Temp"},
		{Measurement: "Thermal", Label: "CPU2Temp"},
		{Measurement: "Thermal", Label: "InletTemp"},
		{Measurement: "Thermal", Label: "FanSpeed1"},
		{Measurement: "Thermal", Label: "FanSpeed2"},
		{Measurement: "Thermal", Label: "FanSpeed3"},
		{Measurement: "Thermal", Label: "FanSpeed4"},
		{Measurement: "Power", Label: "NodePower"},
		{Measurement: "UGE", Label: "CPUUsage"},
		{Measurement: "UGE", Label: "MemUsage"},
	}
}

// ExtendedMetrics adds the network and filesystem series collected
// when the deployment enables Section VI's missing metrics.
func ExtendedMetrics() []Metric {
	return append(DefaultMetrics(),
		Metric{Measurement: "Network", Label: "NICRx"},
		Metric{Measurement: "Network", Label: "NICTx"},
		Metric{Measurement: "Filesystem", Label: "ReadMBps"},
		Metric{Measurement: "Filesystem", Label: "WriteMBps"},
	)
}
