package bench

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"monster/internal/builder"
)

// Query is one Metrics Builder request in the benchmark's own terms:
// node and metric subsets are indices, so the oracle can replay exactly
// the series the request covers.
type Query struct {
	Kind     string // request class: dash, scan, drill, tier, rackscan
	Start    int64
	End      int64
	Interval int64 // seconds
	Nodes    []int // node indices; nil = every node
	Metrics  []int // indices into builder.DefaultMetrics(); nil = all ten
}

func (q Query) nodes(total int) []int {
	if q.Nodes != nil {
		return q.Nodes
	}
	all := make([]int, total)
	for i := range all {
		all[i] = i
	}
	return all
}

func (q Query) metrics() []int {
	if q.Metrics != nil {
		return q.Metrics
	}
	all := make([]int, len(builder.DefaultMetrics()))
	for i := range all {
		all[i] = i
	}
	return all
}

// Path renders the request as the HTTP API takes it.
func (q Query) Path(nodeIDs []string) string {
	v := url.Values{}
	v.Set("start", strconv.FormatInt(q.Start, 10))
	v.Set("end", strconv.FormatInt(q.End, 10))
	v.Set("interval", strconv.FormatInt(q.Interval, 10))
	v.Set("agg", "max")
	if q.Nodes != nil {
		ids := make([]string, len(q.Nodes))
		for i, n := range q.Nodes {
			ids[i] = nodeIDs[n]
		}
		v.Set("nodes", strings.Join(ids, ","))
	}
	if q.Metrics != nil {
		all := builder.DefaultMetrics()
		names := make([]string, len(q.Metrics))
		for i, m := range q.Metrics {
			names[i] = all[m].Name()
		}
		v.Set("metrics", strings.Join(names, ","))
	}
	return "/v1/metrics?" + v.Encode()
}

// Request renders the same request for a direct Builder.Fetch — the
// traced run's entry below the HTTP handler.
func (q Query) Request(nodeIDs []string) builder.Request {
	req := builder.Request{
		Start:     time.Unix(q.Start, 0).UTC(),
		End:       time.Unix(q.End, 0).UTC(),
		Interval:  time.Duration(q.Interval) * time.Second,
		Aggregate: "max",
	}
	for _, n := range q.Nodes {
		req.Nodes = append(req.Nodes, nodeIDs[n])
	}
	all := builder.DefaultMetrics()
	for _, m := range q.Metrics {
		req.Metrics = append(req.Metrics, all[m])
	}
	return req
}

// sampledSeries is how many series of a response are compared value by
// value; every series is still checked for presence and bucket count.
const sampledSeries = 32

// Oracle recomputes what a response must contain from the dataset
// description alone. It covers the generated history; buckets at or
// after Dataset.Start hold what the live simulation produced and are
// only required to exist in order.
type Oracle struct {
	data    Dataset
	nodeIDs []string
	series  map[[2]int][]float64
}

// NewOracle builds the oracle for one deployment's dataset.
func NewOracle(d Dataset, nodeIDs []string) *Oracle {
	return &Oracle{data: d, nodeIDs: nodeIDs, series: make(map[[2]int][]float64)}
}

func (o *Oracle) replay(node, metric int) []float64 {
	key := [2]int{node, metric}
	s, ok := o.series[key]
	if !ok {
		s = o.data.Series(node, metric)
		o.series[key] = s
	}
	return s
}

// window is the part of the query the generated history answers.
func (o *Oracle) window(q Query) (lo, hi int64) {
	lo, hi = q.Start, q.End
	if from := o.data.From(); lo < from {
		lo = from
	}
	if start := o.data.Start.Unix(); hi > start {
		hi = start
	}
	return lo, hi
}

// expected buckets the replayed series the way the engine does:
// epoch-aligned bucket starts, max per bucket, empty buckets omitted.
func (o *Oracle) expected(q Query, node, metric int) (times []int64, values []float64) {
	lo, hi := o.window(q)
	s := o.replay(node, metric)
	from := o.data.From()
	for t := lo + (Cadence-(lo-from)%Cadence)%Cadence; t < hi; t += Cadence {
		v := s[(t-from)/Cadence]
		b := t - t%q.Interval
		if n := len(times); n > 0 && times[n-1] == b {
			if v > values[n-1] {
				values[n-1] = v
			}
			continue
		}
		times = append(times, b)
		values = append(values, v)
	}
	return times, values
}

// Check compares a decoded response with the dataset. Every requested
// (node, metric) series must be present with the right number of
// history buckets; sampledSeries of them, spread evenly over the
// request, must match bucket for bucket, bit for bit.
func (o *Oracle) Check(q Query, resp *builder.Response) error {
	if resp.Start != q.Start || resp.End != q.End || resp.Interval != q.Interval || resp.Aggregate != "max" {
		return fmt.Errorf("oracle: %s: envelope %d..%d/%ds/%s does not echo the request", q.Kind, resp.Start, resp.End, resp.Interval, resp.Aggregate)
	}
	nodes, metrics := q.nodes(len(o.nodeIDs)), q.metrics()
	if len(resp.Nodes) != len(nodes) {
		return fmt.Errorf("oracle: %s: %d nodes in response, want %d", q.Kind, len(resp.Nodes), len(nodes))
	}
	byID := make(map[string]*builder.NodeSeries, len(resp.Nodes))
	for i := range resp.Nodes {
		byID[resp.Nodes[i].NodeID] = &resp.Nodes[i]
	}
	all := builder.DefaultMetrics()
	histEnd := o.data.Start.Unix()
	lo, hi := o.window(q)
	wantBuckets := 0
	if hi > lo {
		wantBuckets = int((hi-1)/q.Interval - lo/q.Interval + 1)
	}
	total := len(nodes) * len(metrics)
	stride := total / sampledSeries
	if stride < 1 {
		stride = 1
	}
	for k := 0; k < total; k++ {
		node, metric := nodes[k/len(metrics)], metrics[k%len(metrics)]
		ns, ok := byID[o.nodeIDs[node]]
		if !ok {
			return fmt.Errorf("oracle: %s: node %s missing", q.Kind, o.nodeIDs[node])
		}
		name := all[metric].Name()
		sd := ns.Metrics[name]
		if len(sd.Times) != len(sd.Values) {
			return fmt.Errorf("oracle: %s: %s %s: %d times but %d values", q.Kind, ns.NodeID, name, len(sd.Times), len(sd.Values))
		}
		hist := 0
		for hist < len(sd.Times) && sd.Times[hist] < histEnd {
			hist++
		}
		if hist != wantBuckets {
			return fmt.Errorf("oracle: %s: %s %s: %d history buckets, want %d", q.Kind, ns.NodeID, name, hist, wantBuckets)
		}
		for i := hist + 1; i < len(sd.Times); i++ {
			if sd.Times[i] <= sd.Times[i-1] {
				return fmt.Errorf("oracle: %s: %s %s: live buckets out of order", q.Kind, ns.NodeID, name)
			}
		}
		if k%stride != 0 {
			continue
		}
		times, values := o.expected(q, node, metric)
		for i := range times {
			if sd.Times[i] != times[i] || sd.Values[i] != values[i] {
				return fmt.Errorf("oracle: %s: %s %s bucket %d: got (%d, %v), want (%d, %v)",
					q.Kind, ns.NodeID, name, i, sd.Times[i], sd.Values[i], times[i], values[i])
			}
		}
	}
	return nil
}
