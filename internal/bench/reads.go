package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"monster/internal/builder"
)

// client is the one consumer of the deployment: a single keep-alive
// connection asking for deflate, like HiperJobViz behind one browser
// tab.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true, // we ask for deflate ourselves
	}}}
}

// reqSample is one HTTP request as the consumer saw it.
type reqSample struct {
	kind  string
	ms    float64 // request sent to last body byte
	wire  int     // body bytes on the wire
	stats builder.Stats
	err   error
}

// checkEvery is how often a repeated request's answer is inflated,
// decoded and compared with the oracle; the first of each class always
// is.
const checkEvery = 20

// request sends one query over HTTP. The clock stops at the last body
// byte; status, length, inflate, decode and the oracle all run after
// it. verify forces the oracle comparison.
func (r *run) request(q Query, verify bool) reqSample {
	s := reqSample{kind: q.Kind}
	req, err := http.NewRequest(http.MethodGet, r.client.base+q.Path(r.dp.NodeIDs), nil)
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Accept-Encoding", "deflate")
	t0 := clk.Now()
	resp, err := r.client.hc.Do(req)
	if err != nil {
		s.err = fmt.Errorf("%s: %w", q.Kind, err)
		return s
	}
	body, err := io.ReadAll(resp.Body)
	s.ms = float64(since(t0)) / 1e6
	_ = resp.Body.Close() // only read from; the read's own error is checked below
	s.wire = len(body)
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s: body: %w", q.Kind, err)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s: status %d: %.200s", q.Kind, resp.StatusCode, body)
	case resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength:
		s.err = fmt.Errorf("%s: short body: %d of %d bytes", q.Kind, len(body), resp.ContentLength)
	case resp.Header.Get("Content-Encoding") != "deflate":
		s.err = fmt.Errorf("%s: response not deflated", q.Kind)
	}
	if s.err != nil {
		return s
	}
	if err := json.Unmarshal([]byte(resp.Header.Get(builder.StatsHeader)), &s.stats); err != nil {
		s.err = fmt.Errorf("%s: stats header: %w", q.Kind, err)
		return s
	}
	if verify {
		s.err = r.verify(q, body)
	}
	return s
}

// verify inflates and decodes a body and compares it with the oracle.
func (r *run) verify(q Query, deflated []byte) error {
	raw, err := builder.Decompress(deflated)
	if err != nil {
		return fmt.Errorf("%s: %w", q.Kind, err)
	}
	resp, err := builder.Decode(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", q.Kind, err)
	}
	return r.oracle.Check(q, resp)
}

// session produces the i-th operation of a read workload: the
// requests one consumer sends back to back. now is the simulation time
// in unix seconds as of the last finished collection cycle.
type session func(r *run, i int, now int64) []Query

// dashSession is the HiperJobViz refresh and the paper's 6 h probe:
// every node, every metric, the last six hours of history at 5 m.
func dashSession(r *run, _ int, _ int64) []Query {
	end := r.dp.Data.Start.Unix()
	return []Query{{Kind: "dash", Start: end - 6*3600, End: end, Interval: 300}}
}

// scanSession is the paper's 72 h probe: the same response shape (one
// bucket per hour instead of per five minutes) over the whole history.
func scanSession(r *run, _ int, _ int64) []Query {
	return []Query{{Kind: "scan", Start: r.dp.Data.From(), End: r.dp.Data.Start.Unix(), Interval: 3600}}
}

// opSample is one operation of a read workload: a session.
type opSample struct {
	ms     float64 // sum of its requests' latencies, or of its layer calls
	reqs   []reqSample
	ok     bool
	direct bool // executed as explicit layer calls with spans, not over HTTP
	late   bool // in the second half of the window, where direct sessions alternate
}

// readLoop is the closed loop of one client: session after session
// until the budget is spent. A traced run spends the first half of the
// window like an untraced one; in the second half every other session
// is executed below the HTTP handler, as explicit layer calls with a
// span around each, instead of being sent. The storage engine sees the
// same sequence of queries either way, so cache behaviour is that of
// the untraced run.
func (r *run) readLoop(next session, now func() int64) (ops []opSample, wall time.Duration) {
	seen := make(map[string]int)
	b := r.window()
	for i := 0; !b.done(i); i++ {
		queries := next(r, i, now())
		r.fetches += len(queries)
		op := opSample{late: r.opts.Trace && b.pastHalf(i)}
		op.direct = op.late && i%2 == 1
		var err error
		if op.direct {
			op.ms, err = r.traceSession(i, queries)
			queries = nil // nothing left to send
		}
		for _, q := range queries {
			n := seen[q.Kind]
			seen[q.Kind] = n + 1
			s := r.request(q, n%checkEvery == 0)
			if s.err != nil && err == nil {
				err = s.err
			}
			op.ms += s.ms
			op.reqs = append(op.reqs, s)
		}
		op.ok = r.attempt(err)
		ops = append(ops, op)
	}
	return ops, since(b.start)
}

// traceSession executes a session below the HTTP handler — Fetch,
// Encode, Compress, the three calls the handler makes — with a span
// around each, and the builder's own stage timings as Fetch's children.
// It returns the session's wall time.
func (r *run) traceSession(op int, queries []Query) (ms float64, err error) {
	sys := r.dp.Sys
	start := clk.Now()
	root := r.rec.Add("session", op, -1, start, start) // end patched below
	for _, q := range queries {
		t0 := clk.Now()
		resp, st, err := sys.Builder.Fetch(context.Background(), q.Request(r.dp.NodeIDs))
		t1 := clk.Now()
		if err != nil {
			return 0, fmt.Errorf("traced %s: fetch: %w", q.Kind, err)
		}
		fetch := r.rec.Add("builder.fetch", op, root, t0, t1)
		planEnd := t0.Add(st.PlanTime)
		queryEnd := planEnd.Add(st.QueryTime)
		r.rec.Add("builder.plan", op, fetch, t0, planEnd)
		r.rec.Add("tsdb.query", op, fetch, planEnd, queryEnd)
		r.rec.Add("builder.merge", op, fetch, queryEnd, queryEnd.Add(st.MergeTime))
		body, err := builder.Encode(resp)
		t2 := clk.Now()
		if err != nil {
			return 0, fmt.Errorf("traced %s: encode: %w", q.Kind, err)
		}
		r.rec.Add("builder.encode", op, root, t1, t2)
		if _, err := builder.Compress(body, 0); err != nil {
			return 0, fmt.Errorf("traced %s: compress: %w", q.Kind, err)
		}
		r.rec.Add("builder.compress", op, root, t2, clk.Now())
	}
	end := clk.Now()
	r.rec.Spans[root].End = end.Sub(r.rec.epoch).Nanoseconds()
	return float64(end.Sub(start)) / 1e6, nil
}

// measureReads is the measured window of dash-6h and scan-72h.
func (r *run) measureReads(next session) error {
	start := r.dp.Data.Start.Unix()
	ops, wall := r.readLoop(next, func() int64 { return start })
	r.readMetrics(ops, wall)
	if r.opts.Trace {
		r.traceMetrics(ops)
	}
	return nil
}

// readMetrics derives the operation metrics and the per-request
// counters from the loop's HTTP requests.
func (r *run) readMetrics(ops []opSample, wall time.Duration) {
	var lat []float64
	var n, wire, raw, queries float64
	var scanned, rows, decoded, fromDisk, tierEq, lockWait float64
	for _, op := range ops {
		if !op.ok || op.direct {
			continue
		}
		lat = append(lat, op.ms)
		for _, s := range op.reqs {
			n++
			wire += float64(s.wire)
			raw += float64(s.stats.BytesRaw)
			queries += float64(s.stats.Queries)
			scanned += float64(s.stats.TSDB.PointsScanned)
			rows += float64(s.stats.TSDB.Rows)
			decoded += float64(s.stats.TSDB.BlocksDecoded)
			fromDisk += float64(s.stats.TSDB.BlocksFromDisk)
			tierEq += float64(s.stats.TSDB.TierRawEquivalent)
			lockWait += float64(s.stats.TSDB.LockWaitNs)
		}
	}
	r.setOps(lat, wall)
	if n == 0 {
		return
	}
	r.set("http.wire_kb_per_query", wire/1024/n)
	r.set("builder.raw_kb_per_query", raw/1024/n)
	r.set("builder.compress_ratio", raw/wire)
	r.set("builder.queries_per_request", queries/n)
	r.set("tsdb.points_scanned_per_query", scanned/n)
	r.set("tsdb.rows_per_query", rows/n)
	r.set("tsdb.blocks_decoded_per_query", decoded/n)
	r.set("tsdb.blocks_from_disk_per_query", fromDisk/n)
	r.set("tsdb.tier_raw_equivalent_per_query", tierEq/n)
	r.set("tsdb.lock_wait_us", lockWait/1e3/n)
}

// spanMedians returns, per span name, the median over operations of
// the self time recorded under it, in ms.
func spanMedians(shares []LayerShare) map[string]float64 {
	out := make(map[string]float64, len(shares))
	for _, s := range shares {
		out[s.Layer] = s.Ms
	}
	return out
}

// traceMetrics folds the second half of a traced window into the layer
// shares of the median operation as the consumer times it. What the
// spans of the direct sessions leave unexplained of the HTTP sessions
// beside them is the HTTP surface: socket, handler parsing, stats
// header. Tracing overhead is what the HTTP sessions of that half lost
// against those of the untraced first half.
func (r *run) traceMetrics(ops []opSample) {
	var early, http, direct []float64
	for _, op := range ops {
		switch {
		case !op.ok:
		case op.direct:
			direct = append(direct, op.ms)
		case op.late:
			http = append(http, op.ms)
		default:
			early = append(early, op.ms)
		}
	}
	if len(early) == 0 || len(http) == 0 || len(direct) == 0 {
		return
	}
	opMs := Median(http)
	r.res.Shares = Shares(r.rec.Spans, opMs)
	m := spanMedians(r.res.Shares)
	r.set("builder.plan_ms", m["builder.plan"])
	r.set("tsdb.query_ms", m["tsdb.query"])
	r.set("builder.merge_ms", m["builder.merge"])
	r.set("builder.encode_ms", m["builder.encode"])
	r.set("builder.compress_ms", m["builder.compress"])
	r.set("http.overhead_ms", m["unaccounted"])
	r.set("trace.accounted_pct", 100*(1-m["unaccounted"]/opMs))
	r.set("trace.overhead_pct", 100*(opMs/Median(early)-1))
}
