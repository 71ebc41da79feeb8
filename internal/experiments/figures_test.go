package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"claim-bmc-latency", "claim-datavolume", "ext-telemetry", "table3", "table4",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, err := Run("nope", true); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, true)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			out := tbl.Format()
			if !strings.Contains(out, tbl.Title) {
				t.Fatalf("%s: format missing title", id)
			}
		})
	}
}

func TestClaimBMCSweepMagnitude(t *testing.T) {
	res := SimulateBMCSweep(QuanahNodes, 1)
	if res.Requests != 1868 {
		t.Fatalf("requests = %d, want 1868", res.Requests)
	}
	// Paper: ~55 s; accept the same magnitude.
	if res.SweepTime < 25*time.Second || res.SweepTime > 110*time.Second {
		t.Fatalf("sweep = %v, want ~55 s", res.SweepTime)
	}
	// The async sweep must beat the sequential bound by orders of
	// magnitude (1868 × 4.29 s ≈ 2.2 h).
	if res.SweepTime > 10*time.Minute {
		t.Fatal("sweep not benefiting from asynchrony")
	}
}

func TestClaimDailyVolumeMagnitude(t *testing.T) {
	res, err := MeasureDailyVolume(16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~10,000 points per interval at 467 nodes. Our schema is
	// leaner (health transitions only); accept 3k–30k.
	if res.PointsPerCycle < 3000 || res.PointsPerCycle > 30000 {
		t.Fatalf("points/interval = %.0f, want ~10^4", res.PointsPerCycle)
	}
	if res.MetricsPerDay < 4e6 || res.MetricsPerDay > 5e7 {
		t.Fatalf("metrics/day = %.2e, want ~1.4e7 magnitude", res.MetricsPerDay)
	}
}

func TestFig13VolumeRatioBand(t *testing.T) {
	res, err := MeasureVolume(12, 90*time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 28.02%. The exact figure depends on the health mix and job
	// churn; assert a strong reduction in the same region.
	if res.Ratio < 0.10 || res.Ratio > 0.45 {
		t.Fatalf("v2/v1 volume ratio = %.3f, want ~0.28", res.Ratio)
	}
	if res.V1PaperScale <= res.V2PaperScale {
		t.Fatal("extrapolation inverted")
	}
}

func TestTable4BandwidthNegligible(t *testing.T) {
	res, err := MeasureBandwidth(32, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalKBps <= 0 {
		t.Fatal("no bandwidth measured")
	}
	// The paper's conclusion: negligible vs the 1 Gbit/s management
	// network. Must hold by a wide margin.
	if res.LinkShare > 0.01 {
		t.Fatalf("accounting uses %.2f%% of the link, not negligible", res.LinkShare*100)
	}
	if res.PerNodeKBps <= 0 || res.PerJobKBps <= 0 {
		t.Fatalf("per-entity rates = %+v", res)
	}
}

func TestFig17TransmissionDominatesLongRanges(t *testing.T) {
	short, err := SimulateTransport(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	long, err := SimulateTransport(7 * 24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rShort := short.TxPlain.Seconds() / short.QueryTime.Seconds()
	rLong := long.TxPlain.Seconds() / long.QueryTime.Seconds()
	if rLong <= rShort {
		t.Fatalf("tx/query ratio not growing with range: %.2f -> %.2f", rShort, rLong)
	}
	// Paper: transmission up to 1.65x the query time at long ranges.
	if rLong < 1.0 || rLong > 2.5 {
		t.Fatalf("7d tx/query = %.2f, want ~1.65", rLong)
	}
}

func TestFig18CompressionRatio(t *testing.T) {
	res, err := SimulateTransport(7 * 24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~5% of uncompressed volume. Real zlib on real JSON.
	if res.CompressRatio < 0.01 || res.CompressRatio > 0.15 {
		t.Fatalf("compression ratio = %.3f, want ~0.05", res.CompressRatio)
	}
}

func TestFig19CompressedTransportSpeedup(t *testing.T) {
	res, err := SimulateTransport(7 * 24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	speedup := res.TotalPlain.Seconds() / res.TotalCompressed.Seconds()
	// Paper: about 2x faster overall.
	if speedup < 1.5 || speedup > 3.0 {
		t.Fatalf("compressed transport speedup = %.2f, want ~2", speedup)
	}
}

func TestTableFormatAligned(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"lonng", "1"}},
		Notes:   []string{"n"},
	}
	out := tbl.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "note: ") {
		t.Fatalf("note rendering: %q", lines[3])
	}
}

func TestFig16NotesIncludeAbsoluteProbes(t *testing.T) {
	tbl, err := Run("fig16", true)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tbl.Notes, "\n")
	if !strings.Contains(joined, "6h") && !strings.Contains(joined, "6h0m0s") {
		t.Fatalf("fig16 notes missing 6h probe: %v", tbl.Notes)
	}
}

func TestFig9LargestGroupDominates(t *testing.T) {
	tbl, err := Run("fig9", true)
	if err != nil {
		t.Fatal(err)
	}
	// The "normal status" group should hold a plurality of nodes.
	maxMembers, total := 0, 0
	for _, row := range tbl.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if n > maxMembers {
			maxMembers = n
		}
	}
	if maxMembers*3 < total {
		t.Fatalf("largest group %d of %d — no dominant normal cluster", maxMembers, total)
	}
}
