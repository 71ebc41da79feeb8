package builder

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"monster/internal/clock"
)

// StatsHeader carries the builder's Stats for one response as a JSON
// HTTP header, so consumers see the server-side stage breakdown
// without it inflating the (compressed) body.
const StatsHeader = "X-Monster-Stats"

// API serves a Builder over HTTP:
//
//	GET /v1/metrics?start=S&end=E&interval=5m&agg=max&nodes=a,b&metrics=Power/NodePower&jobs=true
//	GET /v1/stats
//
// start and end accept epoch seconds or RFC3339. interval accepts a Go
// duration ("5m") or bare seconds; omitting it returns raw samples.
// Responses are JSON; when the consumer sends Accept-Encoding:
// deflate, the body is zlib-compressed (Content-Encoding: deflate) —
// the paper's transport optimization. zlevel=1..9 overrides the
// server's default compression level. Validation failures are 400s
// with {"error": ...}.
type API struct {
	b     *Builder
	mux   *http.ServeMux
	clock clock.Clock

	// writeErrs counts response bodies we failed to deliver (consumer
	// hung up mid-write, broken pipe). Surfaced as write_errors in
	// /v1/stats so failed deliveries are counted, never silent.
	writeErrs atomic.Int64

	// ingestStats, when registered, contributes the "ingest" section of
	// /v1/stats. Holds a func() any so the builder stays decoupled from
	// the ingest package.
	ingestStats atomic.Pointer[func() any]
}

// NewAPI builds the HTTP surface over a Builder.
func NewAPI(b *Builder) *API {
	a := &API{b: b, mux: http.NewServeMux(), clock: b.clock}
	a.mux.HandleFunc("/v1/metrics", a.handleMetrics)
	a.mux.HandleFunc("/v1/stats", a.handleStats)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// WriteErrors reports how many response writes have failed since start.
func (a *API) WriteErrors() int64 { return a.writeErrs.Load() }

// SetIngestStats registers a snapshot function whose result is embedded
// as the "ingest" section of /v1/stats — how the deployment surfaces
// per-stage pipeline counters without the builder importing the ingest
// package. Safe to call concurrently with request handling.
func (a *API) SetIngestStats(fn func() any) { a.ingestStats.Store(&fn) }

func (a *API) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}); err != nil {
		a.writeErrs.Add(1)
	}
}

// parseTimeParam accepts epoch seconds or RFC3339.
func parseTimeParam(s string) (time.Time, error) {
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0).UTC(), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("want epoch seconds or RFC3339, got %q", s)
	}
	return t, nil
}

// parseIntervalParam accepts a Go duration string or bare seconds.
func parseIntervalParam(s string) (time.Duration, error) {
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Duration(sec) * time.Second, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("want duration or seconds, got %q", s)
	}
	return d, nil
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var req Request

	for _, p := range []struct {
		name string
		dst  *time.Time
	}{{"start", &req.Start}, {"end", &req.End}} {
		v := q.Get(p.name)
		if v == "" {
			a.httpError(w, http.StatusBadRequest, "missing %s parameter", p.name)
			return
		}
		t, err := parseTimeParam(v)
		if err != nil {
			a.httpError(w, http.StatusBadRequest, "bad %s: %v", p.name, err)
			return
		}
		*p.dst = t
	}
	if v := q.Get("interval"); v != "" {
		iv, err := parseIntervalParam(v)
		if err != nil {
			a.httpError(w, http.StatusBadRequest, "bad interval: %v", err)
			return
		}
		if iv <= 0 {
			a.httpError(w, http.StatusBadRequest, "interval must be positive, got %q", v)
			return
		}
		req.Interval = iv
	}
	req.Aggregate = q.Get("agg")
	if v := q.Get("nodes"); v != "" {
		req.Nodes = strings.Split(v, ",")
	}
	if v := q.Get("metrics"); v != "" {
		for _, name := range strings.Split(v, ",") {
			m, err := ParseMetric(name)
			if err != nil {
				a.httpError(w, http.StatusBadRequest, "bad metrics: %v", err)
				return
			}
			req.Metrics = append(req.Metrics, m)
		}
	}
	if v := q.Get("jobs"); v != "" {
		jobs, err := strconv.ParseBool(v)
		if err != nil {
			a.httpError(w, http.StatusBadRequest, "bad jobs: %v", err)
			return
		}
		req.IncludeJobs = jobs
	}
	zlevel := 0
	if v := q.Get("zlevel"); v != "" {
		zl, err := strconv.Atoi(v)
		if err != nil || zl < 0 || zl > 9 {
			a.httpError(w, http.StatusBadRequest, "bad zlevel: want 0..9, got %q", v)
			return
		}
		zlevel = zl
	}

	resp, st, err := a.b.Fetch(r.Context(), req)
	if err != nil {
		var reqErr *RequestError
		switch {
		case errors.As(err, &reqErr):
			a.httpError(w, http.StatusBadRequest, "%s", reqErr.Reason)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The consumer went away mid-fan-out; nothing to answer.
			a.httpError(w, 499, "request canceled")
		default:
			a.httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	a.writeMetrics(w, resp, st, acceptsDeflate(r.Header.Get("Accept-Encoding")), zlevel)
}

// writeMetrics sends one fetched response. The whole answer is built
// in a pooled buffer before the first header goes out: a failure is
// still a clean 500, and the stats — byte counts included — travel as
// a header, where a consumer finds them without reading to the end of
// the body.
func (a *API) writeMetrics(w http.ResponseWriter, resp *Response, st Stats, deflated bool, zlevel int) {
	body := bufPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bufPool.Put(body)
	if err := writeBody(body, resp, deflated, zlevel, a.clock, &st); err != nil {
		a.httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	st.Total += st.EncodeTime + st.CompressTime

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Vary", "Accept-Encoding")
	if deflated {
		w.Header().Set("Content-Encoding", "deflate")
	}
	if hdr, err := json.Marshal(st); err == nil {
		w.Header().Set(StatsHeader, string(hdr))
	}
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	if _, err := w.Write(body.Bytes()); err != nil {
		a.writeErrs.Add(1)
	}
}

// acceptsDeflate reports whether an Accept-Encoding header admits
// deflate (with a non-zero quality).
func acceptsDeflate(header string) bool {
	for _, part := range strings.Split(header, ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		enc = strings.TrimSpace(enc)
		if enc != "deflate" && enc != "*" {
			continue
		}
		if q, ok := strings.CutPrefix(strings.TrimSpace(params), "q="); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err == nil && f == 0 {
				continue
			}
		}
		return true
	}
	return false
}

// handleStats reports storage-engine counters (the mquery -stats view).
func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	db := a.b.DB()
	disk := db.Disk()
	type measurement struct {
		Name   string `json:"name"`
		Series int    `json:"series"`
	}
	dbStats := db.Stats()
	walStats := db.WALStats()
	comp := db.Compression()
	out := struct {
		Points          int64         `json:"points"`
		PointsWritten   int64         `json:"points_written"`
		DataBytes       int64         `json:"data_bytes"`
		IndexBytes      int64         `json:"index_bytes"`
		StorageRaw      int64         `json:"storage_bytes_raw"`
		StorageComp     int64         `json:"storage_bytes_compressed"`
		CompressionRate float64       `json:"compression_ratio"`
		BlocksSealed    int64         `json:"blocks_sealed"`
		BlocksLive      int64         `json:"blocks_live"`
		BlocksCached    int64         `json:"blocks_cached"`
		BlocksCold      int64         `json:"blocks_cold"`
		SealedPoints    int64         `json:"sealed_points"`
		TailPoints      int64         `json:"tail_points"`
		TailExplicit    int64         `json:"tail_explicit_points"`
		Shards          int           `json:"shards"`
		Epoch           int64         `json:"epoch"`
		Batches         int64         `json:"batches_written"`
		SeriesCreated   int64         `json:"series_created"`
		MeasurementN    int           `json:"measurement_count"`
		WriteWaitNs     int64         `json:"write_wait_ns"`
		WriteErrors     int64         `json:"write_errors"`
		WALSegments     int           `json:"wal_segments"`
		WALBytes        int64         `json:"wal_bytes"`
		WALAppends      int64         `json:"wal_appends"`
		WALSyncs        int64         `json:"wal_syncs"`
		WALRotations    int64         `json:"wal_rotations"`
		WALCheckpoints  int64         `json:"wal_checkpoints"`
		WALReplayed     int64         `json:"wal_replayed"`
		WALReplayedPts  int64         `json:"wal_replayed_points"`
		WALTorn         int64         `json:"wal_torn_frames"`
		WALTruncated    int64         `json:"wal_truncated_bytes"`
		Measurements    []measurement `json:"measurements"`
		Ingest          any           `json:"ingest,omitempty"`
		// StorageCache is the sealed-block decode cache: hit/miss/eviction
		// counters and resident bytes against the configured budget.
		// Omitted until the first sealed block is touched keeps old
		// clients' output stable (same contract as "ingest").
		StorageCache any `json:"storage_cache,omitempty"`
		// StorageTiers lists registered rollup tiers (target, source,
		// interval, materialized points, watermark). Omitted when no
		// rollups are registered.
		StorageTiers any `json:"storage_tiers,omitempty"`
		// StorageCold is the file-backed cold tier: block placement
		// (resident vs spilled), segment-file footprint, and spill/read/
		// compaction counters. Omitted when no cold directory is
		// configured.
		StorageCold any `json:"storage_cold,omitempty"`
	}{
		Points:          disk.Points,
		PointsWritten:   dbStats.PointsWritten,
		DataBytes:       disk.DataBytes,
		IndexBytes:      disk.IndexBytes,
		StorageRaw:      comp.BytesRaw,
		StorageComp:     comp.BytesCompressed,
		CompressionRate: comp.Ratio(),
		BlocksSealed:    comp.BlocksSealed,
		BlocksLive:      comp.Blocks,
		BlocksCached:    comp.BlocksCached,
		BlocksCold:      comp.BlocksCold,
		SealedPoints:    comp.SealedPoints,
		TailPoints:      comp.TailPoints,
		TailExplicit:    comp.TailExplicitPoints,
		Shards:          disk.Shards,
		Epoch:           db.Epoch(),
		Batches:         dbStats.BatchesWritten,
		SeriesCreated:   dbStats.SeriesCreated,
		MeasurementN:    dbStats.Measurements,
		WriteWaitNs:     dbStats.WriteWaitNs,
		WriteErrors:     a.writeErrs.Load(),
		WALSegments:     walStats.Segments,
		WALBytes:        walStats.Bytes,
		WALAppends:      walStats.Appends,
		WALSyncs:        walStats.Syncs,
		WALRotations:    walStats.Rotations,
		WALCheckpoints:  walStats.Checkpoints,
		WALReplayed:     walStats.Replayed,
		WALReplayedPts:  walStats.ReplayedPoints,
		WALTorn:         walStats.TornFrames,
		WALTruncated:    walStats.TruncatedBytes,
	}
	for _, name := range db.Measurements() {
		out.Measurements = append(out.Measurements, measurement{Name: name, Series: db.SeriesCardinality(name)})
	}
	if fn := a.ingestStats.Load(); fn != nil {
		out.Ingest = (*fn)()
	}
	if cs := db.CacheStats(); cs.Hits+cs.Misses+cs.Evictions > 0 || cs.ResidentBytes > 0 {
		out.StorageCache = cs
	}
	if tiers := db.TierStats(); len(tiers) > 0 {
		out.StorageTiers = tiers
	}
	if cold := db.ColdStats(); cold.Enabled {
		out.StorageCold = cold
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		a.writeErrs.Add(1)
	}
}
