package builder

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"monster/internal/tsdb"
)

func apiServer(t *testing.T, nodes, minutes int) (*httptest.Server, *Builder) {
	t.Helper()
	db := seedDB(t, nodes, minutes)
	b := New(db, Options{Concurrent: true})
	srv := httptest.NewServer(NewAPI(b))
	t.Cleanup(srv.Close)
	return srv, b
}

// TestClientResponseLimit: a response of exactly the limit is fetched,
// and one a byte past it is refused with nothing decoded — an identity
// body as it is read off the wire, a deflated one as it inflates, and
// one whose deflated bytes alone pass the limit before inflating.
func TestClientResponseLimit(t *testing.T) {
	srv, _ := apiServer(t, 3, 60)
	ctx, req := context.Background(), stdRequest(60)
	for _, compress := range []bool{false, true} {
		c := &Client{BaseURL: srv.URL, Compress: compress}
		full, err := c.Fetch(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := c.fetch(ctx, req, full.BodyBytes); err != nil || res.BodyBytes != full.BodyBytes {
			t.Fatalf("compress=%t, a response at the %d B limit: %v", compress, full.BodyBytes, err)
		}
		refused := map[int64]string{full.BodyBytes - 1: "builder: client: read body: body over"}
		if compress {
			refused = map[int64]string{
				full.BodyBytes - 1: "builder: decompress: body over",
				full.WireBytes - 1: "builder: client: read body: body over",
			}
		}
		for limit, want := range refused {
			if res, err := c.fetch(ctx, req, limit); err == nil || !strings.HasPrefix(err.Error(), want) || res != nil {
				t.Fatalf("compress=%t, a response past the %d B limit: %+v, err %v, want %q", compress, limit, res, err, want)
			}
		}
	}
}

// TestAPIRoundTrip drives Client -> httptest.Server -> API -> Builder
// and checks the response matches a direct Fetch, compressed and not.
func TestAPIRoundTrip(t *testing.T) {
	srv, b := apiServer(t, 5, 60)
	req := stdRequest(60)
	req.IncludeJobs = true
	direct, _, err := b.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		client := &Client{BaseURL: srv.URL, Compress: compress}
		res, err := client.Fetch(context.Background(), req)
		if err != nil {
			t.Fatalf("compress=%t: %v", compress, err)
		}
		if !reflect.DeepEqual(res.Response, direct) {
			t.Fatalf("compress=%t: remote response differs from direct fetch", compress)
		}
		if compress {
			if res.WireBytes >= res.BodyBytes {
				t.Fatalf("compression did not shrink transport: %d vs %d", res.WireBytes, res.BodyBytes)
			}
			if res.Stats.BytesCompressed == 0 || res.Stats.BytesCompressed != res.WireBytes {
				t.Fatalf("stats bytes = %+v, wire %d", res.Stats, res.WireBytes)
			}
		} else if res.WireBytes != res.BodyBytes {
			t.Fatalf("identity transfer rewrote body: %d vs %d", res.WireBytes, res.BodyBytes)
		}
		if res.Stats.Queries == 0 || res.Stats.BytesRaw != res.BodyBytes {
			t.Fatalf("compress=%t: stats header missing or wrong: %+v", compress, res.Stats)
		}
		if res.TransferTime <= 0 {
			t.Fatal("no transfer time measured")
		}
	}
}

func TestAPIParameterForms(t *testing.T) {
	srv, _ := apiServer(t, 3, 30)
	start, end := testStart.Unix(), testStart.Add(30*time.Minute).Unix()
	urls := []string{
		// Epoch seconds + Go duration.
		fmt.Sprintf("%s/v1/metrics?start=%d&end=%d&interval=5m&agg=max", srv.URL, start, end),
		// RFC3339 + bare-seconds interval + subsets.
		fmt.Sprintf("%s/v1/metrics?start=%s&end=%s&interval=300&nodes=10.101.1.1,10.101.1.2&metrics=Power/NodePower,UGE/CPUUsage&jobs=true",
			srv.URL, testStart.Format(time.RFC3339), testStart.Add(30*time.Minute).Format(time.RFC3339)),
		// No interval: raw samples.
		fmt.Sprintf("%s/v1/metrics?start=%d&end=%d", srv.URL, start, end),
	}
	for _, u := range urls {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", u, resp.StatusCode, body)
		}
		dec, err := Decode(body)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		if len(dec.Nodes) == 0 {
			t.Fatalf("GET %s returned no nodes", u)
		}
	}
}

func TestAPIBadRequests(t *testing.T) {
	srv, _ := apiServer(t, 2, 10)
	start, end := testStart.Unix(), testStart.Add(10*time.Minute).Unix()
	cases := []struct {
		name  string
		query string
	}{
		{"missing start", fmt.Sprintf("end=%d", end)},
		{"missing end", fmt.Sprintf("start=%d", start)},
		{"bad start", fmt.Sprintf("start=yesterday&end=%d", end)},
		{"end before start", fmt.Sprintf("start=%d&end=%d", end, start)},
		{"end equals start", fmt.Sprintf("start=%d&end=%d", start, start)},
		{"zero interval", fmt.Sprintf("start=%d&end=%d&interval=0", start, end)},
		{"negative interval", fmt.Sprintf("start=%d&end=%d&interval=-5m", start, end)},
		{"garbage interval", fmt.Sprintf("start=%d&end=%d&interval=soon", start, end)},
		{"unknown aggregate", fmt.Sprintf("start=%d&end=%d&interval=5m&agg=percentile", start, end)},
		{"bad metric", fmt.Sprintf("start=%d&end=%d&metrics=NodePower", start, end)},
		{"bad jobs flag", fmt.Sprintf("start=%d&end=%d&jobs=maybe", start, end)},
		{"bad zlevel", fmt.Sprintf("start=%d&end=%d&zlevel=11", start, end)},
	}
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + "/v1/metrics?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if err != nil || e.Error == "" {
			t.Errorf("%s: no error JSON: %v", tc.name, err)
		}
	}
}

func TestAPIClientCancellationMidFanOut(t *testing.T) {
	srv, _ := apiServer(t, 32, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	client := &Client{BaseURL: srv.URL, Compress: true}
	if _, err := client.Fetch(ctx, stdRequest(60)); err == nil {
		t.Fatal("canceled fetch succeeded")
	}
	// The server must stay healthy for the next consumer.
	res, err := (&Client{BaseURL: srv.URL}).Fetch(context.Background(), stdRequest(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Response.Nodes) != 32 {
		t.Fatalf("nodes after cancellation = %d", len(res.Response.Nodes))
	}
}

func TestAPICompressionNegotiation(t *testing.T) {
	srv, _ := apiServer(t, 2, 10)
	u := fmt.Sprintf("%s/v1/metrics?start=%d&end=%d&interval=5m",
		srv.URL, testStart.Unix(), testStart.Add(10*time.Minute).Unix())
	cases := []struct {
		accept  string
		deflate bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", false},
		{"deflate", true},
		{"gzip, deflate", true},
		{"deflate;q=0", false},
		{"*", true},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		if tc.accept != "" {
			req.Header.Set("Accept-Encoding", tc.accept)
		} else {
			req.Header.Set("Accept-Encoding", "identity")
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		gotDeflate := resp.Header.Get("Content-Encoding") == "deflate"
		want := tc.deflate
		if tc.accept == "" {
			want = false
		}
		if gotDeflate != want {
			t.Errorf("Accept-Encoding %q: deflate=%t, want %t", tc.accept, gotDeflate, want)
			continue
		}
		if gotDeflate {
			if _, err := Decompress(body); err != nil {
				t.Errorf("Accept-Encoding %q: bad deflate body: %v", tc.accept, err)
			}
		} else if _, err := Decode(body); err != nil {
			t.Errorf("Accept-Encoding %q: bad identity body: %v", tc.accept, err)
		}
		if resp.Header.Get("Vary") != "Accept-Encoding" {
			t.Errorf("Accept-Encoding %q: missing Vary header", tc.accept)
		}
	}
}

func TestAPIStatsEndpoint(t *testing.T) {
	srv, b := apiServer(t, 3, 20)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Points       int64   `json:"points"`
		DataBytes    int64   `json:"data_bytes"`
		Shards       int     `json:"shards"`
		StorageRaw   int64   `json:"storage_bytes_raw"`
		StorageComp  int64   `json:"storage_bytes_compressed"`
		Ratio        float64 `json:"compression_ratio"`
		BlocksSealed int64   `json:"blocks_sealed"`
		Measurements []struct {
			Name   string `json:"name"`
			Series int    `json:"series"`
		} `json:"measurements"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Points != b.DB().Disk().Points || body.Points == 0 {
		t.Fatalf("points = %d", body.Points)
	}
	comp := b.DB().Compression()
	if body.StorageRaw != comp.BytesRaw || body.StorageRaw == 0 {
		t.Fatalf("storage_bytes_raw = %d, engine says %d", body.StorageRaw, comp.BytesRaw)
	}
	if body.StorageComp != comp.BytesCompressed || body.StorageComp == 0 {
		t.Fatalf("storage_bytes_compressed = %d, engine says %d", body.StorageComp, comp.BytesCompressed)
	}
	if body.Ratio != comp.Ratio() || body.Ratio < 1 {
		t.Fatalf("compression_ratio = %v, engine says %v", body.Ratio, comp.Ratio())
	}
	if sealed := b.DB().Stats().BlocksSealed; body.BlocksSealed != sealed {
		t.Fatalf("blocks_sealed = %d, engine says %d", body.BlocksSealed, sealed)
	}
	found := false
	for _, m := range body.Measurements {
		if m.Name == "Power" && m.Series == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Power measurement not reported: %+v", body.Measurements)
	}
}

func TestAPIStatsHeaderParses(t *testing.T) {
	srv, _ := apiServer(t, 2, 10)
	u := fmt.Sprintf("%s/v1/metrics?start=%d&end=%d&interval=5m",
		srv.URL, testStart.Unix(), testStart.Add(10*time.Minute).Unix())
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	hdr := resp.Header.Get(StatsHeader)
	if hdr == "" || strings.ContainsAny(hdr, "\r\n") {
		t.Fatalf("stats header = %q", hdr)
	}
	var st Stats
	if err := json.Unmarshal([]byte(hdr), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries == 0 || st.Nodes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAPIStatsIngestSection: the /v1/stats payload embeds the ingest
// pipeline's counters once a snapshot function is registered, and
// omits the key entirely before then (so deployments without a
// pipeline keep their exact old payload shape).
func TestAPIStatsIngestSection(t *testing.T) {
	db := seedDB(t, 2, 10)
	api := NewAPI(New(db, Options{}))
	srv := httptest.NewServer(api)
	defer srv.Close()

	if raw, ok := fetchStats(t, srv.URL)["ingest"]; ok {
		t.Fatalf("ingest section present before registration: %s", raw)
	}

	api.SetIngestStats(func() any {
		return map[string]any{"running": true, "points_received": 42}
	})
	raw, ok := fetchStats(t, srv.URL)["ingest"]
	if !ok {
		t.Fatal("ingest section missing after registration")
	}
	var ing struct {
		Running        bool  `json:"running"`
		PointsReceived int64 `json:"points_received"`
	}
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if !ing.Running || ing.PointsReceived != 42 {
		t.Fatalf("ingest section = %s", raw)
	}
}

// TestAPIStatsStorageSections: /v1/stats embeds the decode-cache
// counters once sealed blocks have been touched and the rollup tier
// list once tiers are registered — and omits both keys before then, so
// deployments without tiers keep their exact old payload shape. The
// database then seals, spills, checkpoints and evicts, and every
// counter that history must have moved has to arrive non-zero in the
// decoded response.
func TestAPIStatsStorageSections(t *testing.T) {
	db := openStatsDB(t)
	srv := httptest.NewServer(NewAPI(New(db, Options{})))
	defer srv.Close()

	body := fetchStats(t, srv.URL)
	if raw, ok := body["storage_cache"]; ok {
		t.Fatalf("storage_cache present before any sealed-block decode: %s", raw)
	}
	if raw, ok := body["storage_tiers"]; ok {
		t.Fatalf("storage_tiers present before registration: %s", raw)
	}

	statsHistory(t, db)
	body = fetchStats(t, srv.URL)
	nonZero := func(section string, fields map[string]json.RawMessage, keys ...string) {
		t.Helper()
		for _, key := range keys {
			var n float64
			if err := json.Unmarshal(fields[key], &n); err != nil || n == 0 {
				t.Errorf("%s%s = %s (err %v), want a non-zero number", section, key, fields[key], err)
			}
		}
	}
	nonZero("", body,
		"points", "points_written", "batches_written", "series_created", "measurement_count", "shards",
		"blocks_sealed", "blocks_live", "blocks_cold", "sealed_points", "tail_points", "tail_explicit_points",
		"storage_bytes_raw", "storage_bytes_compressed", "compression_ratio",
		"wal_segments", "wal_bytes", "wal_appends", "wal_rotations", "wal_checkpoints")
	// Only the off-cadence point: the tier's rows sit on its 5 m grid.
	if got := string(body["tail_explicit_points"]); got != "1" {
		t.Errorf("tail_explicit_points = %s, want 1", got)
	}
	var cold map[string]json.RawMessage
	if err := json.Unmarshal(body["storage_cold"], &cold); err != nil {
		t.Fatalf("storage_cold = %s: %v", body["storage_cold"], err)
	}
	nonZero("storage_cold.", cold,
		"blocks_cold", "cold_bytes", "files", "file_bytes", "spills", "spilled_bytes", "reads", "read_bytes")
	rawTiers, ok := body["storage_tiers"]
	if !ok {
		t.Fatal("storage_tiers missing after registration")
	}
	var tiers []struct {
		Target    string `json:"target"`
		Source    string `json:"source"`
		IntervalS int64  `json:"interval_s"`
		Points    int64  `json:"points"`
		Watermark int64  `json:"watermark"`
	}
	if err := json.Unmarshal(rawTiers, &tiers); err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 1 || tiers[0].Target != "Power_max_300s" || tiers[0].Source != "Power" ||
		tiers[0].IntervalS != 300 || tiers[0].Points == 0 || tiers[0].Watermark == 0 {
		t.Fatalf("storage_tiers = %s", rawTiers)
	}
	rawCache, ok := body["storage_cache"]
	if !ok {
		t.Fatal("storage_cache missing after sealed-block reads")
	}
	var cache map[string]json.RawMessage
	if err := json.Unmarshal(rawCache, &cache); err != nil {
		t.Fatal(err)
	}
	nonZero("storage_cache.", cache, "misses", "evictions", "resident_bytes", "budget_bytes", "entries")
}

// openStatsDB opens a durable, cold-tiered DB holding 60 points of one
// series: at 8 per block they seal seven 128-byte blocks (the readings
// are not float32-exact, so a cached point costs 8 B), and the decode
// cache holds two of them, so one raw scan evicts.
func openStatsDB(t *testing.T) *tsdb.DB {
	t.Helper()
	db, _, err := tsdb.OpenDurable(
		tsdb.Options{BlockSize: 8, ColdDir: t.TempDir(), DecodeCacheBytes: 256},
		tsdb.WALOptions{Dir: t.TempDir(), Policy: tsdb.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseWAL() })
	var pts []tsdb.Point
	for i := 0; i < 60; i++ {
		pts = append(pts, tsdb.Point{
			Measurement: "Power",
			Tags:        tsdb.Tags{{Key: "NodeId", Value: "n0"}, {Key: "Label", Value: "NodePower"}},
			Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(float64(100+i) + 0.1)},
			Time:        int64(i * 60),
		})
	}
	if err := db.WritePoints(pts); err != nil {
		t.Fatal(err)
	}
	return db
}

// statsHistory moves every storage section of an openStatsDB: it
// registers a rollup tier, writes past its buckets, spills to the cold
// tier, checkpoints, and scans the sealed blocks through the decode
// cache.
func statsHistory(t *testing.T, db *tsdb.DB) {
	t.Helper()
	if err := db.RegisterRollup(tsdb.RollupSpec{Source: "Power", Field: "Reading", Aggregate: "max", Interval: 300}); err != nil {
		t.Fatal(err)
	}
	// One point past the data closes every 5 m bucket the fixture wrote.
	// It lands 90 s after the last one, off the minute cadence, so the
	// raw tail keeps its time explicitly.
	if err := db.WritePoint(tsdb.Point{
		Measurement: "Power",
		Tags:        tsdb.Tags{{Key: "NodeId", Value: "n0"}, {Key: "Label", Value: "NodePower"}},
		Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(100)},
		Time:        3630,
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := db.SpillCold(3600); n == 0 || err != nil {
		t.Fatalf("spilled %d blocks, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A raw scan over the sealed columns reads them back from the cold
	// tier and runs them through the decode cache.
	if _, err := db.Query(`SELECT max("Reading") FROM "Power"`); err != nil {
		t.Fatal(err)
	}
}

func fetchStats(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAPIStatsSurfacePinned pins /v1/stats as its clients read it: the
// exact key set, at the top level and in each storage section, and the
// value behind every key, read from the engine's own accessors. A key
// that two embedded stats structs both carry is dropped by
// encoding/json, and fails here.
func TestAPIStatsSurfacePinned(t *testing.T) {
	db := openStatsDB(t)
	statsHistory(t, db)
	api := NewAPI(New(db, Options{}))
	api.SetIngestStats(func() any { return map[string]int64{"points_received": 7} })
	srv := httptest.NewServer(api)
	defer srv.Close()
	body := fetchStats(t, srv.URL)

	disk, st, wal, comp := db.Disk(), db.Stats(), db.WALStats(), db.Compression()
	cache, cold := db.CacheStats(), db.ColdStats()
	var measurements, tiers []map[string]any
	for _, name := range db.Measurements() {
		measurements = append(measurements, map[string]any{"name": name, "series": db.SeriesCardinality(name)})
	}
	for _, ti := range db.TierStats() {
		tiers = append(tiers, map[string]any{"target": ti.Target, "source": ti.Source, "aggregate": ti.Aggregate,
			"interval_s": ti.IntervalS, "points": ti.Points, "watermark": ti.Watermark})
	}
	want := map[string]any{
		"points": disk.Points, "data_bytes": disk.DataBytes, "index_bytes": disk.IndexBytes, "shards": disk.Shards,
		"points_written": st.PointsWritten, "batches_written": st.BatchesWritten, "series_created": st.SeriesCreated,
		"measurement_count": st.Measurements, "write_wait_ns": st.WriteWaitNs, "blocks_sealed": st.BlocksSealed,
		"storage_bytes_raw": comp.BytesRaw, "storage_bytes_compressed": comp.BytesCompressed,
		"compression_ratio": comp.Ratio(), "blocks_live": comp.Blocks, "blocks_cached": comp.BlocksCached,
		"blocks_cold": comp.BlocksCold, "sealed_points": comp.SealedPoints, "tail_points": comp.TailPoints,
		"tail_explicit_points": comp.TailExplicitPoints,
		"epoch":                db.Epoch(), "write_errors": 0,
		"wal_segments": wal.Segments, "wal_bytes": wal.Bytes, "wal_appends": wal.Appends, "wal_syncs": wal.Syncs,
		"wal_rotations": wal.Rotations, "wal_checkpoints": wal.Checkpoints, "wal_replayed": wal.Replayed,
		"wal_replayed_points": wal.ReplayedPoints, "wal_torn_frames": wal.TornFrames,
		"wal_truncated_bytes": wal.TruncatedBytes,
		"measurements":        measurements,
		"ingest":              map[string]any{"points_received": 7},
		"storage_cache": map[string]any{"hits": cache.Hits, "misses": cache.Misses, "evictions": cache.Evictions,
			"purges": cache.Purges, "resident_bytes": cache.ResidentBytes, "budget_bytes": cache.BudgetBytes,
			"entries": cache.Entries},
		"storage_tiers": tiers,
		"storage_cold": map[string]any{"enabled": cold.Enabled, "blocks_cold": cold.BlocksCold,
			"cold_bytes": cold.ColdBytes, "resident_blocks": cold.ResidentBlocks, "resident_bytes": cold.ResidentBytes,
			"budget_bytes": cold.BudgetBytes, "files": cold.Files, "file_bytes": cold.FileBytes, "spills": cold.Spills,
			"spilled_bytes": cold.SpilledBytes, "reads": cold.Reads, "read_bytes": cold.ReadBytes,
			"compactions": cold.Compactions, "reclaimed_bytes": cold.ReclaimedBytes},
	}
	// Both sides go through a JSON round trip, numbers kept as their
	// text, so a nested key set is compared exactly and no value is
	// rounded on the way.
	decode := func(raw []byte) any {
		d := json.NewDecoder(bytes.NewReader(raw))
		d.UseNumber()
		var v any
		if err := d.Decode(&v); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		return v
	}
	for key, w := range want {
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := body[key]; !ok {
			t.Errorf("/v1/stats lacks %q", key)
		} else if g, w := decode(got), decode(raw); !reflect.DeepEqual(g, w) {
			t.Errorf("%s = %s, want %s", key, got, raw)
		}
	}
	for key := range body {
		if _, ok := want[key]; !ok {
			t.Errorf("/v1/stats carries unpinned key %q", key)
		}
	}
}
