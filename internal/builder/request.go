package builder

import (
	"fmt"
	"time"

	"monster/internal/tsdb"
)

// Request is a consumer's ask: a time range, a downsampling interval,
// an aggregate, and optional node/metric subsets — the exact parameter
// shape of the paper's Section III-D example ("a time range, a time
// interval, and an aggregation function").
type Request struct {
	// Start and End bound the window [Start, End) — end-exclusive, so a
	// one-hour window at a five-minute interval yields exactly twelve
	// buckets.
	Start time.Time
	End   time.Time
	// Interval is the downsampling bucket width. Zero returns the raw
	// samples unaggregated.
	Interval time.Duration
	// Aggregate is the downsampling function, one of the storage
	// engine's aggregates (tsdb.IsAggregate). Empty means mean.
	// Ignored when Interval is zero.
	Aggregate string
	// Nodes restricts the response to these NodeId values. Empty means
	// every node present in the requested measurements.
	Nodes []string
	// Metrics selects the per-node series. Nil means DefaultMetrics.
	Metrics []Metric
	// IncludeJobs adds the JobsInfo and NodeJobs correlation data to
	// the response (the Fig 5/6 join).
	IncludeJobs bool
}

// RequestError reports an invalid Request. The HTTP API maps it to a
// 400 response; everything else is a 500.
type RequestError struct{ Reason string }

func (e *RequestError) Error() string { return "builder: invalid request: " + e.Reason }

func badRequest(format string, args ...any) error {
	return &RequestError{Reason: fmt.Sprintf(format, args...)}
}

// Validate checks the request without touching storage.
func (r *Request) Validate() error {
	if r.Start.IsZero() || r.End.IsZero() {
		return badRequest("start and end are required")
	}
	if !r.End.After(r.Start) {
		return badRequest("end %v is not after start %v", r.End, r.Start)
	}
	if r.Interval < 0 {
		return badRequest("negative interval %v", r.Interval)
	}
	if r.Aggregate != "" && !tsdb.IsAggregate(r.Aggregate) {
		return badRequest("unknown aggregate %q", r.Aggregate)
	}
	for _, m := range r.Metrics {
		if m.Measurement == "" || m.Label == "" {
			return badRequest("metric %+v missing measurement or label", m)
		}
	}
	return nil
}

// aggregate resolves the effective aggregation function.
func (r *Request) aggregate() string {
	if r.Aggregate == "" {
		return "mean"
	}
	return r.Aggregate
}

// metrics resolves the effective metric set.
func (r *Request) metrics() []Metric {
	if len(r.Metrics) == 0 {
		return DefaultMetrics()
	}
	return r.Metrics
}
