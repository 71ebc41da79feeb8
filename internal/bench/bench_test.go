package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"monster/internal/tsdb"
)

func TestPercentileRule(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := Percentile(s, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := Percentile(s, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := Percentile(s[:7], 50); got != 4 {
		t.Errorf("p50 of 1..7 = %v, want 4", got)
	}
	// A percentile is carried by n samples only with ten beyond it.
	if !Supported(100, 90) || Supported(99, 90) {
		t.Errorf("p90 must need exactly 100 samples: Supported(100)=%v Supported(99)=%v", Supported(100, 90), Supported(99, 90))
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := HighestSupported(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("HighestSupported(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := Summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q != (Quartiles{2.75, 5.5, 8.25}) {
		t.Errorf("quartiles of 1..10 = %+v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := Summarize([]float64{4, 1, 2}); q != (Quartiles{1, 2, 4}) {
		t.Errorf("quartiles of 1,2,4 = %+v", q)
	}
	if got := (Quartiles{Q1: 95, Median: 100, Q3: 105}).Spread(); got != 0.1 {
		t.Errorf("spread = %v, want 0.1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 0, Parent: 0, Start: 10, End: 30},
		{Name: "b", Op: 0, Parent: 0, Start: 20, End: 50},  // overlaps a: 30..50 is new
		{Name: "c", Op: 0, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{Name: "a1", Op: 0, Parent: 1, Start: 12, End: 17},
	}
	want := []time.Duration{100 - 20 - 20 - 10, 20 - 5, 30, 30, 5}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}

	// Two operations; shares are medians over operations of summed self
	// time per name, and the remainder is what no span explains.
	ms := int64(time.Millisecond)
	spans = []Span{
		{Name: "op", Op: 0, Parent: -1, Start: 0, End: 10 * ms},
		{Name: "x", Op: 0, Parent: 0, Start: 0, End: 6 * ms},
		{Name: "op", Op: 1, Parent: -1, Start: 20 * ms, End: 30 * ms},
		{Name: "x", Op: 1, Parent: 2, Start: 20 * ms, End: 28 * ms},
	}
	// Merged recorders keep their parent links and their operations apart.
	a, b := &Recorder{Spans: append([]Span(nil), spans[:2]...)}, &Recorder{Spans: []Span{{Name: "op", Parent: -1}, {Name: "y", Parent: 0}}}
	a.Merge(b, 100)
	if got := a.Spans[3]; got.Op != 100 || got.Parent != 2 {
		t.Errorf("merged child = %+v, want op 100 under span 2", got)
	}

	shares := Shares(spans, 12)
	got := spanMedians(shares)
	if got["op"] != 3 || got["x"] != 7 || got["unaccounted"] != 2 {
		t.Errorf("shares = %+v", shares)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	d := Dataset{Nodes: 4, Start: midnight, History: 3 * time.Hour, Seed: 1}
	ids := []string{"n0", "n1", "n2", "n3"}
	dump := func(d Dataset) []byte {
		var all [][]tsdb.Point
		st := d.NewStream(ids)
		for {
			batch, _ := st.Next()
			if batch == nil {
				break
			}
			all = append(all, batch)
		}
		data, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := dump(d), dump(d)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different points")
	}
	d2 := d
	d2.Seed = 2
	if bytes.Equal(a, dump(d2)) {
		t.Error("seeds 1 and 2 produced identical points")
	}

	// The oracle's replay of one series is the stream's values for it.
	st := d.NewStream(ids)
	want := d.Series(2, 7)
	for k := 0; ; k++ {
		batch, ts := st.Next()
		if batch == nil {
			if k != d.Steps() {
				t.Errorf("stream yielded %d steps, want %d", k, d.Steps())
			}
			break
		}
		p := batch[2*len(shapes)+7]
		if p.Time != ts || ts != d.From()+int64(k)*Cadence || p.Fields["Reading"].F != want[k] {
			t.Fatalf("step %d: stream has %v at %d, replay has %v", k, p.Fields["Reading"].F, p.Time, want[k])
		}
	}
}

// smallScale is 8 nodes and 26 h: enough for one sealed, spilled block
// per series (a day shard holds 1440 samples and seals at 1024) with a
// raw tail that covers the last six hours.
var smallScale = scale{fleetNodes: 8, fleetHistory: 26 * time.Hour, quanahNodes: 8, quanahHistory: 26 * time.Hour}

func smallRun(t *testing.T, workload string, ops int, traced bool) *RunResult {
	t.Helper()
	res, err := Run(Options{Workload: workload, Seed: 1, Ops: ops, Trace: traced, Dir: t.TempDir(), scale: &smallScale})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct() {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, res.Failed, res.Attempted, res.Errors)
	}
	return res
}

func TestSmokeAllWorkloads(t *testing.T) {
	ops := map[string]int{"collect": 30, "dash-6h": 24, "scan-72h": 24, "mixed-live": 8}
	for _, w := range Workloads() {
		res := smallRun(t, w.Name, ops[w.Name], false)
		for _, d := range EndToEnd {
			if v := res.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
		if _, err := res.ContractLine(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}

		tr := smallRun(t, w.Name, ops[w.Name], true)
		line, err := tr.ContractLine()
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		var contract struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(line, &contract); err != nil {
			t.Fatal(err)
		}
		if !contract.Correct || len(contract.Metrics) != len(PerLayer) {
			t.Errorf("%s traced: correct=%v with %d metrics, want %d", w.Name, contract.Correct, len(contract.Metrics), len(PerLayer))
		}
		if tr.Metrics["trace.spans"] == 0 || len(tr.Shares) == 0 {
			t.Errorf("%s traced: no spans or no share table", w.Name)
		}
		m := tr.Metrics
		switch w.Name {
		case "collect":
			for _, name := range []string{"redfish.sweep_ms", "collector.preprocess_ms", "ingest.sink_write_ms",
				"core.substrate_ms", "tsdb.write_us_per_kpoint_wal", "alerting.evaluate_ms", "tsdb.wal_bytes_per_point"} {
				if !(m[name] > 0) {
					t.Errorf("collect traced: %s = %v, want > 0", name, m[name])
				}
			}
			if m["ingest.accounting_ok"] != 1 || m["ingest.points_dropped"] != 0 {
				t.Errorf("collect traced: accounting_ok=%v dropped=%v", m["ingest.accounting_ok"], m["ingest.points_dropped"])
			}
			if m["tsdb.recovery_replayed_points"] == 0 || !(m["tsdb.recovery_s"] > 0) {
				t.Errorf("collect traced: the restart replayed %v points in %v s", m["tsdb.recovery_replayed_points"], m["tsdb.recovery_s"])
			}
		case "dash-6h":
			// The refresh window lies in the raw tail: no block is touched.
			if m["tsdb.blocks_decoded_per_query"] != 0 || !(m["builder.compress_ms"] > 0) {
				t.Errorf("dash-6h traced: blocks decoded %v, compress %v ms", m["tsdb.blocks_decoded_per_query"], m["builder.compress_ms"])
			}
		case "scan-72h":
			// Nine of the ten series per node decode their sealed block;
			// Power is answered from its rollup tier.
			if m["tsdb.blocks_decoded_per_query"] != 72 || m["tsdb.blocks_sealed"] != 80 || m["tsdb.blocks_spilled"] != 80 {
				t.Errorf("scan-72h traced: decoded %v sealed %v spilled %v", m["tsdb.blocks_decoded_per_query"], m["tsdb.blocks_sealed"], m["tsdb.blocks_spilled"])
			}
		case "mixed-live":
			for _, name := range []string{"mix.drill_ms_p50", "mix.dash_ms_p50", "mix.tier_ms_p50", "mix.rackscan_ms_p50", "mix.cycle_ms_p50"} {
				if !(m[name] > 0) {
					t.Errorf("mixed-live traced: %s = %v, want > 0", name, m[name])
				}
			}
		}
	}
}

func TestOracleFailsTheRunOnACorruptPoint(t *testing.T) {
	// One sample of the first sampled series, inside the dash window.
	step := smallScale.fleet(1).Steps() - 30
	res, err := Run(Options{
		Workload: "dash-6h", Seed: 1, Ops: 3, Dir: t.TempDir(), scale: &smallScale,
		corrupt: func(s int, batch []tsdb.Point) {
			if s == step {
				batch[0].Fields["Reading"] = tsdb.Float(1e6)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct() || res.Failed == 0 {
		t.Errorf("a corrupted point went unnoticed: %d failed of %d", res.Failed, res.Attempted)
	}
}

func TestCountsRepeatForASeed(t *testing.T) {
	a := smallRun(t, "scan-72h", 12, true)
	b := smallRun(t, "scan-72h", 12, true)
	for _, name := range []string{"http.wire_kb_per_query", "tsdb.blocks_decoded_per_query", "tsdb.points_scanned_per_query",
		"tsdb.blocks_sealed", "tsdb.blocks_spilled", "tsdb.cold_bytes", "builder.raw_kb_per_query"} {
		if a.Metrics[name] != b.Metrics[name] || a.Metrics[name] == 0 {
			t.Errorf("%s: %v then %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ManifestJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json is out of step with the metric tables; regenerate it with: go run ./cmd/loadgen -manifest > BENCHMARK.json")
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(p50 ...float64) *File {
		f := &File{}
		for _, v := range p50 {
			f.Runs = append(f.Runs, RunResult{Workload: "dash-6h", Metrics: map[string]float64{"op_ms_p50": v, "ops_per_s": 1000 / v}})
		}
		return f
	}
	base := file(20, 20.2, 19.9, 20.1, 20)
	verdicts := func(change *File) map[string]string {
		out := make(map[string]string)
		for _, c := range Compare(base, change) {
			out[c.Name] = c.Verdict
		}
		return out
	}
	if v := verdicts(file(20.1, 20, 20.2, 19.9, 20)); v["op_ms_p50"] != Unchanged || v["ops_per_s"] != Unchanged {
		t.Errorf("same numbers: %v", v)
	}
	if v := verdicts(file(28, 28.1, 27.9, 28, 28.2)); v["op_ms_p50"] != Regression || v["ops_per_s"] != Regression {
		t.Errorf("40%% slower: %v", v)
	}
	if v := verdicts(file(18, 18.1, 17.9, 18, 18.2)); v["op_ms_p50"] != Improved || v["ops_per_s"] != Improved {
		t.Errorf("10%% faster on every pair: %v", v)
	}
	// Faster on the median but losing two pairs of five: not a gain.
	if v := verdicts(file(19, 20.3, 18.9, 20.25, 19.1)); v["op_ms_p50"] != Unchanged {
		t.Errorf("wins 3 of 5: %v", v)
	}
	// A side whose own spread exceeds the bound cannot be judged.
	if v := verdicts(file(16, 24, 20, 15, 25)); v["op_ms_p50"] != Unresolved {
		t.Errorf("noisy change: %v", v)
	}
}
