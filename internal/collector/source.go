// Package collector implements MonSTer's Metrics Collector (Section
// III-B): a centralized agent that, at a configurable interval
// (60 s in the paper), asynchronously sweeps every node's BMC over the
// management network, queries the resource manager on the head node,
// pre-processes the samples (integer status codes, epoch timestamps,
// job-list diffing for finish-time estimation, derived usage metrics),
// and batch-writes the resulting data points into the time-series
// database.
package collector

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"monster/internal/scheduler"
)

// SchedulerSource is the collector's view of the resource manager
// (UGE's ARCo in the paper; the Slurm REST API is an alternative
// implementation).
type SchedulerSource interface {
	// Hosts returns the per-host metrics (Table II "Node" category).
	Hosts(ctx context.Context) ([]scheduler.HostEntry, error)
	// Jobs returns running and pending jobs (Table II "Job" category).
	Jobs(ctx context.Context) ([]scheduler.JobEntry, error)
	// Accounting returns completed-job records with end time >= since.
	Accounting(ctx context.Context, since time.Time) ([]scheduler.AccountingEntry, error)
	// BytesRead reports accounting payload bytes transferred so far —
	// the quantity Table IV divides by the collection interval.
	BytesRead() int64
}

// HTTPSchedulerSource queries the scheduler API over HTTP, counting
// payload bytes. BaseURL is e.g. "http://head-node" (no trailing
// slash).
type HTTPSchedulerSource struct {
	BaseURL string
	Client  *http.Client
	bytes   atomic.Int64
}

// NewHTTPSchedulerSource builds a source; client nil means
// http.DefaultClient.
func NewHTTPSchedulerSource(baseURL string, client *http.Client) *HTTPSchedulerSource {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPSchedulerSource{BaseURL: baseURL, Client: client}
}

// maxSchedulerBody bounds one scheduler API response, UGE or Slurm.
// The largest the simulator produces at 467 nodes is /uge/hosts at
// 379,325 bytes six simulated hours in (accounting since the epoch was
// 103,353 bytes then, and grows ~17 KB per simulated hour); 8 MiB is
// over 20 times that.
const maxSchedulerBody = 8 << 20

func (s *HTTPSchedulerSource) get(ctx context.Context, path string, out interface{}) error {
	return getJSON(ctx, s.Client, "scheduler", s.BaseURL, path, &s.bytes, out)
}

// getJSON fetches base+path and decodes its JSON body into out,
// counting the body's bytes into n. It reads one byte past
// maxSchedulerBody, which tells a body that fits from one that was cut,
// and refuses a body over the limit whole as the poll's failure: out is
// left untouched.
func getJSON(ctx context.Context, client *http.Client, what, base, path string, n *atomic.Int64, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("collector: %s query %s: %w", what, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSchedulerBody+1))
	if err != nil {
		return err
	}
	if len(body) > maxSchedulerBody {
		return fmt.Errorf("collector: %s query %s: body over %d bytes", what, path, maxSchedulerBody)
	}
	n.Add(int64(len(body)))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collector: %s query %s: status %d", what, path, resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}

// Hosts implements SchedulerSource.
func (s *HTTPSchedulerSource) Hosts(ctx context.Context) ([]scheduler.HostEntry, error) {
	var out []scheduler.HostEntry
	err := s.get(ctx, "/uge/hosts", &out)
	return out, err
}

// Jobs implements SchedulerSource.
func (s *HTTPSchedulerSource) Jobs(ctx context.Context) ([]scheduler.JobEntry, error) {
	var out []scheduler.JobEntry
	err := s.get(ctx, "/uge/jobs", &out)
	return out, err
}

// Accounting implements SchedulerSource.
func (s *HTTPSchedulerSource) Accounting(ctx context.Context, since time.Time) ([]scheduler.AccountingEntry, error) {
	var out []scheduler.AccountingEntry
	err := s.get(ctx, fmt.Sprintf("/uge/accounting?since=%d", since.Unix()), &out)
	return out, err
}

// BytesRead implements SchedulerSource.
func (s *HTTPSchedulerSource) BytesRead() int64 { return s.bytes.Load() }

// DirectSchedulerSource reads an in-process scheduler API without HTTP,
// still accounting encoded bytes so Table IV remains measurable. It is
// used by simulations that want to avoid HTTP overhead in tight loops.
type DirectSchedulerSource struct {
	API   *scheduler.API
	bytes atomic.Int64
}

func (s *DirectSchedulerSource) count(v interface{}) {
	if b, err := json.Marshal(v); err == nil {
		s.bytes.Add(int64(len(b)))
	}
}

// Hosts implements SchedulerSource.
func (s *DirectSchedulerSource) Hosts(ctx context.Context) ([]scheduler.HostEntry, error) {
	out := s.API.HostEntries()
	s.count(out)
	return out, nil
}

// Jobs implements SchedulerSource.
func (s *DirectSchedulerSource) Jobs(ctx context.Context) ([]scheduler.JobEntry, error) {
	out := s.API.JobEntries()
	s.count(out)
	return out, nil
}

// Accounting implements SchedulerSource.
func (s *DirectSchedulerSource) Accounting(ctx context.Context, since time.Time) ([]scheduler.AccountingEntry, error) {
	out := s.API.AccountingEntries(since)
	s.count(out)
	return out, nil
}

// BytesRead implements SchedulerSource.
func (s *DirectSchedulerSource) BytesRead() int64 { return s.bytes.Load() }
