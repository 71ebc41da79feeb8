package builder

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"monster/internal/clock"
)

// Client fetches from a remote Metrics Builder API — the consumer side
// of the paper's Fig 17–19 transport measurements.
type Client struct {
	// BaseURL is the API root, e.g. "http://localhost:8080".
	BaseURL string
	// Compress asks the server for zlib transport compression
	// (Accept-Encoding: deflate).
	Compress bool
	// Level overrides the server-side compression level (1–9; 0 lets
	// the server pick its default). Only meaningful with Compress.
	Level int
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Clock supplies time for TransferTime measurement. Nil selects
	// the wall clock.
	Clock clock.Clock
}

func (c *Client) clk() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.NewReal()
}

// FetchResult is one fetched response plus the transport accounting
// the experiments compare: bytes on the wire vs decoded body bytes,
// and wall-clock transfer time.
type FetchResult struct {
	Response *Response
	// Stats is the server-side breakdown (from the X-Monster-Stats
	// header); zero if the server did not send one.
	Stats Stats
	// WireBytes is what crossed the network (compressed when Compress).
	WireBytes int64
	// BodyBytes is the decoded JSON size.
	BodyBytes int64
	// TransferTime covers request start to body fully read.
	TransferTime time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Fetch performs one request against the remote API. A response over
// maxResponseBody, on the wire or inflated, fails the fetch.
func (c *Client) Fetch(ctx context.Context, req Request) (*FetchResult, error) {
	return c.fetch(ctx, req, maxResponseBody)
}

func (c *Client) fetch(ctx context.Context, req Request, limit int64) (*FetchResult, error) {
	q := url.Values{}
	q.Set("start", strconv.FormatInt(req.Start.Unix(), 10))
	q.Set("end", strconv.FormatInt(req.End.Unix(), 10))
	if req.Interval > 0 {
		q.Set("interval", strconv.FormatInt(int64(req.Interval.Seconds()), 10))
	}
	if req.Aggregate != "" {
		q.Set("agg", req.Aggregate)
	}
	if len(req.Nodes) > 0 {
		q.Set("nodes", strings.Join(req.Nodes, ","))
	}
	if len(req.Metrics) > 0 {
		names := make([]string, len(req.Metrics))
		for i, m := range req.Metrics {
			names[i] = m.Name()
		}
		q.Set("metrics", strings.Join(names, ","))
	}
	if req.IncludeJobs {
		q.Set("jobs", "true")
	}
	if c.Compress && c.Level > 0 {
		q.Set("zlevel", strconv.Itoa(c.Level))
	}

	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(c.BaseURL, "/")+"/v1/metrics?"+q.Encode(), nil)
	if err != nil {
		return nil, fmt.Errorf("builder: client: %w", err)
	}
	// Explicit either way: it disables net/http's transparent gzip, so
	// WireBytes is what actually crossed the wire.
	if c.Compress {
		hreq.Header.Set("Accept-Encoding", "deflate")
	} else {
		hreq.Header.Set("Accept-Encoding", "identity")
	}

	clk := c.clk()
	t0 := clk.Now()
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("builder: client: %w", err)
	}
	defer hresp.Body.Close()
	wire, err := readAtMost(hresp.Body, limit)
	if err != nil {
		return nil, fmt.Errorf("builder: client: read body: %w", err)
	}
	transfer := clk.Now().Sub(t0)

	if hresp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(wire, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("builder: client: server returned %d: %s", hresp.StatusCode, e.Error)
		}
		return nil, fmt.Errorf("builder: client: server returned %d", hresp.StatusCode)
	}

	body := wire
	if hresp.Header.Get("Content-Encoding") == "deflate" {
		if body, err = decompress(wire, limit); err != nil {
			return nil, err
		}
	}
	resp, err := Decode(body)
	if err != nil {
		return nil, err
	}
	res := &FetchResult{
		Response:     resp,
		WireBytes:    int64(len(wire)),
		BodyBytes:    int64(len(body)),
		TransferTime: transfer,
	}
	if hdr := hresp.Header.Get(StatsHeader); hdr != "" {
		_ = json.Unmarshal([]byte(hdr), &res.Stats)
	}
	return res, nil
}
