package redfish

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"monster/internal/clock"
)

// NoRetries disables retries entirely (one attempt per GET). The
// Retries field treats zero as "use the default", so "no retries" needs
// an explicit sentinel.
const NoRetries = -1

// NoRetryBackoff disables the inter-attempt delay. Like NoRetries, it
// exists because zero on RetryBackoff selects the default.
const NoRetryBackoff time.Duration = -1

// ClientOptions configures the collector-side Redfish client. The
// defaults mirror the mechanisms Section III-B1 describes: connection
// and read timeouts plus retries, added because the iDRAC "has limited
// resources and cannot handle a large number of requests".
type ClientOptions struct {
	// RequestTimeout bounds one attempt (connection + read). Zero means
	// 30 s.
	RequestTimeout time.Duration
	// Retries is how many additional attempts follow a failed one. Zero
	// means the default of 2; use NoRetries (or any negative value) for
	// a single attempt — a plain 0 cannot mean "none" because the zero
	// value must select the default.
	Retries int
	// RetryBackoff is the base delay before the first retry; later
	// retries back off exponentially (base, 2×base, 4×base, ...) with
	// deterministic jitter, capped at MaxRetryBackoff. Zero means the
	// default of 500 ms; use NoRetryBackoff (or any negative value) to
	// retry immediately.
	RetryBackoff time.Duration
	// Clock supplies sleep for backoff; nil means the real clock.
	Clock clock.Clock
	// HTTPClient performs requests; nil means http.DefaultClient. For a
	// simulated fleet pass fleet.Client().
	HTTPClient *http.Client
}

// maxResourceBody bounds one Redfish resource body, so a BMC that
// streams an endless body fails that node's poll, not the process's
// memory. The largest resource the simulated BMC serves is Thermal at
// 1,246 bytes; 1 MiB leaves room for real BMCs' larger sensor
// inventories.
const maxResourceBody = 1 << 20

// MaxRetryBackoff caps the exponential backoff between attempts so a
// long retry budget cannot stall a collection cycle indefinitely.
const MaxRetryBackoff = 30 * time.Second

func (o *ClientOptions) applyDefaults() {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	switch {
	case o.Retries < 0: // NoRetries: explicitly none
		o.Retries = 0
	case o.Retries == 0:
		o.Retries = 2
	}
	switch {
	case o.RetryBackoff < 0: // NoRetryBackoff: explicitly none
		o.RetryBackoff = 0
	case o.RetryBackoff == 0:
		o.RetryBackoff = 500 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
}

// ClientStats counts request outcomes across the client's lifetime.
type ClientStats struct {
	Requests int64 // logical GETs issued
	Attempts int64 // HTTP attempts including retries
	Retries  int64
	Failures int64 // logical GETs that exhausted retries
}

// Client fetches Redfish resources with timeouts and retries.
type Client struct {
	opts ClientOptions

	mu    sync.Mutex
	stats ClientStats
}

// NewClient builds a client.
func NewClient(opts ClientOptions) *Client {
	opts.applyDefaults()
	return &Client{opts: opts}
}

// Stats returns a snapshot of the request counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// backoff computes the delay before retry attempt (1-based) against
// url: exponential growth from the configured base, capped at
// MaxRetryBackoff, with deterministic equal jitter. The jittered half
// is derived from an FNV-1a hash of (url, attempt), so a rack of BMCs
// that failed together does not hammer the network in lockstep on
// retry, yet every schedule is a pure function of its inputs —
// reproducible under the simulated clock and safe to call
// concurrently.
func (c *Client) backoff(url string, attempt int) time.Duration {
	base := c.opts.RetryBackoff
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < MaxRetryBackoff; i++ {
		d *= 2
	}
	if d > MaxRetryBackoff {
		d = MaxRetryBackoff
	}
	half := d / 2
	h := fnv.New64a()
	_, _ = h.Write([]byte(url)) // hash.Hash Write never fails
	_, _ = h.Write([]byte{byte(attempt), byte(attempt >> 8)})
	frac := float64(h.Sum64()%1024) / 1024
	return half + time.Duration(float64(half)*frac)
}

// GetJSON fetches url and decodes the JSON body into out. It retries
// transport errors, timeouts, and 5xx responses, backing off
// exponentially between attempts (see backoff).
func (c *Client) GetJSON(ctx context.Context, url string, out interface{}) error {
	c.mu.Lock()
	c.stats.Requests++
	c.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			if d := c.backoff(url, attempt); d > 0 {
				select {
				case <-ctx.Done():
					lastErr = ctx.Err()
				case <-c.opts.Clock.After(d):
				}
			}
			if ctx.Err() != nil {
				if lastErr == nil {
					lastErr = ctx.Err()
				}
				break
			}
		}
		c.mu.Lock()
		c.stats.Attempts++
		c.mu.Unlock()
		err := c.attempt(ctx, url, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	c.mu.Lock()
	c.stats.Failures++
	c.mu.Unlock()
	return fmt.Errorf("redfish: GET %s: %w", url, lastErr)
}

func (c *Client) attempt(ctx context.Context, url string, out interface{}) error {
	actx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	// One byte past the limit tells a body that fits from one that was
	// cut; a body over it fails the attempt whole and out is untouched.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResourceBody+1))
	if err != nil {
		return err
	}
	if len(body) > maxResourceBody {
		return fmt.Errorf("body over %d bytes", maxResourceBody)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// Thermal fetches a node's Thermal resource.
func (c *Client) Thermal(ctx context.Context, addr string) (*Thermal, error) {
	var t Thermal
	if err := c.GetJSON(ctx, URL(addr, PathThermal), &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// Power fetches a node's Power resource.
func (c *Client) Power(ctx context.Context, addr string) (*Power, error) {
	var p Power
	if err := c.GetJSON(ctx, URL(addr, PathPower), &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// System fetches a node's System resource.
func (c *Client) System(ctx context.Context, addr string) (*System, error) {
	var s System
	if err := c.GetJSON(ctx, URL(addr, PathSystem), &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// NIC fetches a node's fabric interface with live statistics.
func (c *Client) NIC(ctx context.Context, addr string) (*EthernetInterface, error) {
	var e EthernetInterface
	if err := c.GetJSON(ctx, URL(addr, PathNIC), &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// Manager fetches a node's Manager resource.
func (c *Client) Manager(ctx context.Context, addr string) (*Manager, error) {
	var m Manager
	if err := c.GetJSON(ctx, URL(addr, PathManager), &m); err != nil {
		return nil, err
	}
	return &m, nil
}
