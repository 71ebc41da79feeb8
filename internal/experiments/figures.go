package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"monster/internal/collector"
)

// Table is one reproduced paper artifact rendered as rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment table. quick selects a reduced scale
// suitable for unit tests and benchmarks.
type Runner func(quick bool) (*Table, error)

var registry = map[string]Runner{
	"claim-bmc-latency": runClaimBMC,
	"ext-telemetry":     runExtTelemetry,
	"claim-datavolume":  runClaimDataVolume,
	"table3":            runTable3,
	"table4":            runTable4,
	"fig6":              runFig6,
	"fig7":              runFig7,
	"fig8":              runFig8,
	"fig9":              runFig9,
	"fig10":             runFig10,
	"fig11":             runFig11,
	"fig12":             runFig12,
	"fig13":             runFig13,
	"fig14":             runFig14,
	"fig15":             runFig15,
	"fig16":             runFig16,
	"fig17":             runFig17,
	"fig18":             runFig18,
	"fig19":             runFig19,
}

// IDs lists registered experiments in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id, r := range registry {
		if r != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, quick bool) (*Table, error) {
	r, ok := registry[id]
	if !ok || r == nil {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(quick)
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

func runClaimBMC(quick bool) (*Table, error) {
	nodes := QuanahNodes
	if quick {
		nodes = 64
	}
	res := SimulateBMCSweep(nodes, 1)
	t := &Table{
		ID:      "claim-bmc-latency",
		Title:   "Redfish sweep time (paper §III-B1: 4.29 s/request, ~55 s full sweep of 1868 URLs)",
		Columns: []string{"nodes", "requests", "mean latency (s)", "sweep (s)", "paper sweep (s)"},
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("%d", res.Nodes), fmt.Sprintf("%d", res.Requests),
		secs(res.MeanLatency), secs(res.SweepTime), secs(res.PaperSweep),
	})
	return t, nil
}

func runExtTelemetry(quick bool) (*Table, error) {
	nodes := QuanahNodes
	if quick {
		nodes = 64
	}
	old := SimulateBMCSweep(nodes, 1)
	neu := SimulateTelemetrySweep(nodes, 1)
	t := &Table{
		ID:      "ext-telemetry",
		Title:   "Extension: Redfish Telemetry Service sweep vs four-category polling (paper §VI future work)",
		Columns: []string{"mode", "requests", "sweep (s)"},
		Rows: [][]string{
			{"4 category GETs (13G iDRAC)", fmt.Sprintf("%d", old.Requests), secs(old.SweepTime)},
			{"1 MetricReport (telemetry)", fmt.Sprintf("%d", neu.Requests), secs(neu.SweepTime)},
		},
		Notes: []string{
			fmt.Sprintf("speedup %.1fx — the telemetry model lifts the paper's 55 s sweep floor and with it the 60 s collection-interval limit", old.SweepTime.Seconds()/neu.SweepTime.Seconds()),
		},
	}
	return t, nil
}

func runClaimDataVolume(quick bool) (*Table, error) {
	nodes, cycles := 32, 10
	if quick {
		nodes, cycles = 12, 4
	}
	res, err := MeasureDailyVolume(nodes, cycles, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "claim-datavolume",
		Title:   "Collection data volume (paper §III-C: ~10,000 points/interval, ~1.4e7 metrics/day)",
		Columns: []string{"points/interval (467 nodes)", "paper", "metrics/day", "paper"},
		Rows: [][]string{{
			fmt.Sprintf("%.0f", res.PointsPerCycle), fmt.Sprintf("%.0f", res.PaperPointsCycle),
			fmt.Sprintf("%.2e", res.MetricsPerDay), fmt.Sprintf("%.2e", res.PaperMetricsDaily),
		}},
		Notes: []string{"measured on the real pipeline at reduced node count, extrapolated linearly in nodes"},
	}
	return t, nil
}

func runTable3(quick bool) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Host hardware specifications (Table III, reproduced as model anchors)",
		Columns: []string{"role", "cpu", "ram (GB)", "storage", "network"},
	}
	for _, h := range TableIII() {
		t.Rows = append(t.Rows, []string{h.Role, h.CPU, fmt.Sprintf("%d", h.RAMGB), h.Storage, h.Network})
	}
	return t, nil
}

func runTable4(quick bool) (*Table, error) {
	nodes, jobs := 64, 55
	if quick {
		nodes, jobs = 32, 25
	}
	res, err := MeasureBandwidth(nodes, jobs, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table4",
		Title:   "Network bandwidth for accounting transmission (Table IV)",
		Columns: []string{"", "total KB/s", "KB/s per node", "KB/s per job"},
		Rows: [][]string{
			{"measured (extrapolated to 467 nodes / 400 jobs)", fmt.Sprintf("%.2f", res.TotalKBps), fmt.Sprintf("%.3f", res.PerNodeKBps), fmt.Sprintf("%.3f", res.PerJobKBps)},
			{"paper", fmt.Sprintf("%.2f", res.PaperTotalKBps), fmt.Sprintf("%.3f", res.PaperNodeKBps), fmt.Sprintf("%.3f", res.PaperJobKBps)},
		},
		Notes: []string{
			fmt.Sprintf("management-link share: %.4f%% of 1 Gbit/s — negligible, matching the paper's conclusion", res.LinkShare*100),
			"absolute KB/s depends on accounting verbosity (the paper's qstat XML is wordier than this JSON); the claim under test is negligibility",
		},
	}
	return t, nil
}

func sweepScale(quick bool) (int, []time.Duration, []time.Duration) {
	nodes := QuanahNodes
	ranges := PaperRanges()
	intervals := PaperIntervals()
	if quick {
		nodes = 64
		ranges = []time.Duration{24 * time.Hour, 3 * 24 * time.Hour, 7 * 24 * time.Hour}
		intervals = []time.Duration{5 * time.Minute, 60 * time.Minute}
	}
	return nodes, ranges, intervals
}

func runFig10(quick bool) (*Table, error) {
	nodes, ranges, intervals := sweepScale(quick)
	base := Baseline()
	base.Nodes = nodes
	grid := Sweep(base, ranges, intervals)
	t := &Table{
		ID:      "fig10",
		Title:   "Query+processing time vs time range, baseline (HDD, previous schema, sequential)",
		Columns: append([]string{"interval"}, rangeHeaders(ranges)...),
	}
	for i, iv := range intervals {
		row := []string{iv.String()}
		for j := range ranges {
			row = append(row, secs(grid[i][j].Total))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: 50–250 s over the same grid; shape: grows with range, shrinks with interval")
	return t, nil
}

func rangeHeaders(ranges []time.Duration) []string {
	out := make([]string, len(ranges))
	for i, r := range ranges {
		out[i] = fmt.Sprintf("%dd (s)", int(r.Hours()/24))
	}
	return out
}

func runFig11(quick bool) (*Table, error) {
	nodes, _, _ := sweepScale(quick)
	cfg := Baseline()
	cfg.Nodes = nodes
	cfg.Range = 3 * 24 * time.Hour
	cfg.Interval = 5 * time.Minute
	res := SimulateQuery(cfg)
	t := &Table{
		ID:      "fig11",
		Title:   "Time consumption breakdown for querying and processing (paper: BMC ~80%, UGE ~10%)",
		Columns: []string{"component", "share", "paper"},
		Rows: [][]string{
			{"BMC measurements (Power/Thermal/Health)", fmt.Sprintf("%.1f%%", res.ShareBMC*100), "~80%"},
			{"UGE measurements", fmt.Sprintf("%.1f%%", res.ShareUGE*100), ">10%"},
			{"processing (middleware)", fmt.Sprintf("%.1f%%", res.ShareProcessing*100), "~10%"},
		},
	}
	return t, nil
}

// comparisonFig renders a two-configuration speedup table across
// ranges.
func comparisonFig(id, title string, quick bool, mk func(nodes int) (QueryConfig, QueryConfig), paperBand string) (*Table, error) {
	nodes, ranges, _ := sweepScale(quick)
	slow, fast := mk(nodes)
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: append([]string{"config"}, append(rangeHeaders(ranges), "speedup range")...),
	}
	slowRow := []string{configName(slow)}
	fastRow := []string{configName(fast)}
	var minSp, maxSp float64
	for _, r := range ranges {
		s := slow
		s.Range = r
		s.Interval = 5 * time.Minute
		f := fast
		f.Range = r
		f.Interval = 5 * time.Minute
		st := SimulateQuery(s).Total
		ft := SimulateQuery(f).Total
		slowRow = append(slowRow, secs(st))
		fastRow = append(fastRow, secs(ft))
		sp := float64(st) / float64(ft)
		if minSp == 0 || sp < minSp {
			minSp = sp
		}
		if sp > maxSp {
			maxSp = sp
		}
	}
	slowRow = append(slowRow, "")
	fastRow = append(fastRow, fmt.Sprintf("%.2fx-%.2fx", minSp, maxSp))
	t.Rows = [][]string{slowRow, fastRow}
	t.Notes = append(t.Notes, "paper band: "+paperBand)
	return t, nil
}

func configName(c QueryConfig) string {
	mode := "sequential"
	if c.Concurrent {
		mode = "concurrent"
	}
	return fmt.Sprintf("%s schema / %s / %s", c.Schema, c.Device.Name, mode)
}

func runFig12(quick bool) (*Table, error) {
	return comparisonFig("fig12", "Query time: HDD vs SSD (previous schema, sequential)", quick,
		func(n int) (QueryConfig, QueryConfig) {
			a := Baseline()
			a.Nodes = n
			b := a
			b.Device = SSD
			return a, b
		}, "1.5x-2.1x")
}

func runFig14(quick bool) (*Table, error) {
	return comparisonFig("fig14", "Query time: previous vs optimized schema (SSD, sequential)", quick,
		func(n int) (QueryConfig, QueryConfig) {
			a := Baseline()
			a.Nodes = n
			a.Device = SSD
			b := a
			b.Schema = collector.SchemaV2
			return a, b
		}, "1.6x-1.76x")
}

func runFig15(quick bool) (*Table, error) {
	return comparisonFig("fig15", "Query time: sequential vs concurrent (optimized schema, SSD)", quick,
		func(n int) (QueryConfig, QueryConfig) {
			a := Optimized()
			a.Nodes = n
			a.Concurrent = false
			b := a
			b.Concurrent = true
			return a, b
		}, "5.5x-6.5x")
}

func runFig16(quick bool) (*Table, error) {
	t, err := comparisonFig("fig16", "Cumulative optimizations: baseline vs fully optimized", quick,
		func(n int) (QueryConfig, QueryConfig) {
			a := Baseline()
			a.Nodes = n
			b := Optimized()
			b.Nodes = n
			return a, b
		}, "17x-25x overall; 3.78 s @ 6 h, 12.9 s @ 72 h")
	if err != nil {
		return nil, err
	}
	nodes, _, _ := sweepScale(quick)
	for _, probe := range []time.Duration{6 * time.Hour, 72 * time.Hour} {
		cfg := Optimized()
		cfg.Nodes = nodes
		cfg.Range = probe
		cfg.Interval = 5 * time.Minute
		t.Notes = append(t.Notes, fmt.Sprintf("optimized @ %v: %s s", probe, secs(SimulateQuery(cfg).Total)))
	}
	return t, nil
}

func runFig13(quick bool) (*Table, error) {
	nodes, span := 16, 2*time.Hour
	if quick {
		nodes, span = 8, time.Hour
	}
	res, err := MeasureVolume(nodes, span, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig13",
		Title:   "Data volumes: previous vs optimized schema (paper: optimized = 28.02% of previous)",
		Columns: []string{"schema", "measured bytes", "points", "extrapolated to 467 nodes x 13 months"},
		Rows: [][]string{
			{"previous", fmt.Sprintf("%d", res.V1Bytes), fmt.Sprintf("%d", res.V1Points), fmt.Sprintf("%.1f GB", float64(res.V1PaperScale)/1e9)},
			{"optimized", fmt.Sprintf("%d", res.V2Bytes), fmt.Sprintf("%d", res.V2Points), fmt.Sprintf("%.1f GB", float64(res.V2PaperScale)/1e9)},
		},
		Notes: []string{
			fmt.Sprintf("optimized/previous = %.2f%% (paper: 28.02%%)", res.Ratio*100),
			"volumes are real encoded bytes from the storage engine, measured on both pipeline variants",
		},
	}
	return t, nil
}

// monsterWireNote labels the columns that leave the paper's format.
const monsterWireNote = "paper columns: a timestamp per sample, zlib level 6 (the paper's builder); MonSTer wire: the same response as /v1/metrics serves it — bucketed series as start + values, server default level"

// pctOf renders part as a percentage of whole.
func pctOf(part, whole int64) string {
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

func runFig17(quick bool) (*Table, error) {
	ranges := PaperRanges()
	if quick {
		ranges = []time.Duration{24 * time.Hour, 7 * 24 * time.Hour}
	}
	t := &Table{
		ID:      "fig17",
		Title:   "Query-processing vs transmission time, remote consumer (paper: transmission up to 1.65x longer)",
		Columns: []string{"range", "query (s)", "transmission (s)", "tx/query", "response MB", "MonSTer wire MB", "MonSTer wire tx (s)"},
		Notes:   []string{monsterWireNote},
	}
	for _, r := range ranges {
		res, err := SimulateTransport(r)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dd", int(r.Hours()/24)),
			secs(res.QueryTime), secs(res.TxPlain),
			fmt.Sprintf("%.2f", res.TxPlain.Seconds()/res.QueryTime.Seconds()),
			fmt.Sprintf("%.1f", float64(res.RawBytes)/1e6),
			fmt.Sprintf("%.1f", float64(res.WireRawBytes)/1e6), secs(res.WireTxPlain),
		})
	}
	return t, nil
}

func runFig18(quick bool) (*Table, error) {
	res, err := SimulateTransport(7 * 24 * time.Hour)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig18",
		Title:   "Data volumes: uncompressed vs zlib-compressed responses (paper: ~5%)",
		Columns: []string{"", "bytes (7d response)", "ratio"},
		Rows: [][]string{
			{"uncompressed", fmt.Sprintf("%d", res.RawBytes), "100%"},
			{"compressed", fmt.Sprintf("%d", res.CompressedBytes), fmt.Sprintf("%.1f%%", res.CompressRatio*100)},
			{"MonSTer wire, uncompressed", fmt.Sprintf("%d", res.WireRawBytes), pctOf(res.WireRawBytes, res.RawBytes)},
			{"MonSTer wire, compressed", fmt.Sprintf("%d", res.WireCompressedBytes), pctOf(res.WireCompressedBytes, res.RawBytes)},
		},
		Notes: []string{
			"ratio measured with real zlib on real builder JSON",
			monsterWireNote,
			fmt.Sprintf("MonSTer wire ratios are against the paper-format uncompressed bytes; deflate alone takes the MonSTer wire body to %s of itself", pctOf(res.WireCompressedBytes, res.WireRawBytes)),
		},
	}
	return t, nil
}

func runFig19(quick bool) (*Table, error) {
	ranges := PaperRanges()
	if quick {
		ranges = []time.Duration{24 * time.Hour, 7 * 24 * time.Hour}
	}
	t := &Table{
		ID:      "fig19",
		Title:   "Total response time, uncompressed vs compressed transport (paper: ~2x faster compressed)",
		Columns: []string{"range", "plain total (s)", "compressed total (s)", "speedup", "MonSTer wire total (s)", "MonSTer wire speedup"},
		Notes:   []string{monsterWireNote},
	}
	for _, r := range ranges {
		res, err := SimulateTransport(r)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dd", int(r.Hours()/24)),
			secs(res.TotalPlain), secs(res.TotalCompressed),
			fmt.Sprintf("%.2fx", res.TotalPlain.Seconds()/res.TotalCompressed.Seconds()),
			secs(res.WireTotalCompressed),
			fmt.Sprintf("%.2fx", res.TotalPlain.Seconds()/res.WireTotalCompressed.Seconds()),
		})
	}
	return t, nil
}
