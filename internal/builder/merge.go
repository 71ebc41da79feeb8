package builder

import (
	"math"
	"slices"
	"sort"
	"strings"

	"monster/internal/tsdb"
)

// Response is the builder's merged answer: one JSON document covering
// every requested node and metric, plus (with IncludeJobs) the job
// records and node→jobs correlations needed for consumer-side joins.
type Response struct {
	Start     int64            `json:"start"`
	End       int64            `json:"end"`
	Interval  int64            `json:"interval"` // seconds; 0 = raw samples
	Aggregate string           `json:"aggregate,omitempty"`
	Nodes     []NodeSeries     `json:"nodes"`
	Jobs      []JobRecord      `json:"jobs,omitempty"`
	NodeJobs  []NodeJobsRecord `json:"node_jobs,omitempty"`
}

// NodeSeries is one node's slice of the response, keyed by
// Metric.Name() ("Measurement/Label").
type NodeSeries struct {
	NodeID  string                `json:"node_id"`
	Metrics map[string]SeriesData `json:"metrics"`
}

// SeriesData is one downsampled (or raw) series as parallel arrays —
// the compact column layout that makes the JSON compress so well. The
// tags are the form encoding/json gives it; on the wire (Encode,
// Decode) a gapless bucketed series sends start in place of times.
type SeriesData struct {
	Times  []int64   `json:"times"`
	Values []float64 `json:"values"`
}

// JobRecord is the latest stored JobsInfo state of one job in the
// window.
type JobRecord struct {
	JobID      string `json:"job_id"`
	User       string `json:"user"`
	JobName    string `json:"job_name,omitempty"`
	Queue      string `json:"queue,omitempty"`
	SubmitTime int64  `json:"submit_time"`
	StartTime  int64  `json:"start_time"`
	FinishTime int64  `json:"finish_time,omitempty"` // 0 while running
	Estimated  bool   `json:"estimated,omitempty"`
	Slots      int64  `json:"slots"`
	NodeCount  int64  `json:"node_count"`
}

// NodeJobsRecord is one node→jobs correlation sample.
type NodeJobsRecord struct {
	NodeID string   `json:"node_id"`
	Time   int64    `json:"time"`
	Jobs   []string `json:"jobs"`
}

// newResponse pre-allocates one NodeSeries per planned node, sorted,
// so merge can append by index without re-sorting afterwards.
func newResponse(req *Request, nodes []string) (*Response, map[string]int) {
	resp := &Response{
		Start:    req.Start.Unix(),
		End:      req.End.Unix(),
		Interval: int64(req.Interval.Seconds()),
		Nodes:    make([]NodeSeries, len(nodes)),
	}
	if req.Interval > 0 {
		resp.Aggregate = req.aggregate()
	}
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		resp.Nodes[i] = NodeSeries{NodeID: n, Metrics: make(map[string]SeriesData)}
		idx[n] = i
	}
	return resp, idx
}

// mergeResult folds one query result into the response. Every
// (node, metric) series appears in exactly one query of the plan and
// rows arrive time-ascending, so series are handed over wholesale — the
// result's own time and value slices, no re-sort, no dedup, no copy
// (the merge cost the paper's Fig 11 breakdown charges to
// "processing"). A stored value that is not finite has no JSON form; it
// is left out and counted, so one bad sample costs its own bucket and
// not the whole response.
func mergeResult(resp *Response, idx map[string]int, res *tsdb.Result) (series, points, nonFinite int) {
	for k := range res.Series {
		s := &res.Series[k]
		node, _ := s.Tags.Get("NodeId")
		label, _ := s.Tags.Get("Label")
		i, ok := idx[node]
		if !ok || label == "" {
			continue
		}
		sd := SeriesData{Times: s.Times}
		if sd.Values, ok = s.Float64s(0); !ok || slices.ContainsFunc(sd.Values, notFinite) {
			sd = numericRows(s, &nonFinite) // the rare mixed, gapped or non-finite field
		}
		if len(sd.Times) == 0 {
			continue
		}
		resp.Nodes[i].Metrics[s.Name+"/"+label] = sd
		series++
		points += len(sd.Times)
	}
	return series, points, nonFinite
}

func notFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// numericRows copies the rows of s whose first field holds a finite
// number, and counts the non-finite ones it leaves out.
func numericRows(s *tsdb.ResultSeries, nonFinite *int) (sd SeriesData) {
	for j, t := range s.Times {
		v, ok := s.Value(0, j)
		if f, num := v.AsFloat(); ok && num && notFinite(f) {
			*nonFinite++
		} else if ok && num {
			sd.Times, sd.Values = append(sd.Times, t), append(sd.Values, f)
		}
	}
	return sd
}

// jobsInfoColumns is the projection of the jobs query, in order.
var jobsInfoColumns = []string{
	"User", "JobName", "Queue", "SubmitTime", "StartTime",
	"FinishTime", "Estimated", "Slots", "NodeCount",
}

// mergeJobs folds a raw JobsInfo query result (grouped by JobId) into
// job records. Job rows are written every cycle while the job is
// visible and once more when it finishes, so the latest present value
// per column wins.
func mergeJobs(resp *Response, res *tsdb.Result) {
	for k := range res.Series {
		s := &res.Series[k]
		jobID, _ := s.Tags.Get("JobId")
		if jobID == "" {
			continue
		}
		rec := JobRecord{JobID: jobID}
		for j := range s.Times {
			for col, name := range jobsInfoColumns {
				v, ok := s.Value(col, j)
				if !ok {
					continue
				}
				switch name {
				case "User":
					rec.User = v.S
				case "JobName":
					rec.JobName = v.S
				case "Queue":
					rec.Queue = v.S
				case "SubmitTime":
					rec.SubmitTime = v.I
				case "StartTime":
					rec.StartTime = v.I
				case "FinishTime":
					rec.FinishTime = v.I
				case "Estimated":
					rec.Estimated = v.B
				case "Slots":
					rec.Slots = v.I
				case "NodeCount":
					rec.NodeCount = v.I
				}
			}
		}
		resp.Jobs = append(resp.Jobs, rec)
	}
	sort.Slice(resp.Jobs, func(i, j int) bool { return resp.Jobs[i].JobID < resp.Jobs[j].JobID })
}

// mergeNodeJobs folds a raw NodeJobs query result (grouped by NodeId)
// into correlation samples, decoding the stringified job list the
// collector stores (InfluxDB has no array field type — Fig 5).
func mergeNodeJobs(resp *Response, res *tsdb.Result) {
	for k := range res.Series {
		s := &res.Series[k]
		node, _ := s.Tags.Get("NodeId")
		if node == "" {
			continue
		}
		for j, t := range s.Times {
			v, ok := s.Value(0, j)
			if !ok {
				continue
			}
			jobs := parseJobList(v.S)
			if len(jobs) == 0 {
				continue
			}
			resp.NodeJobs = append(resp.NodeJobs, NodeJobsRecord{NodeID: node, Time: t, Jobs: jobs})
		}
	}
	sort.Slice(resp.NodeJobs, func(i, j int) bool {
		a, b := resp.NodeJobs[i], resp.NodeJobs[j]
		if a.NodeID != b.NodeID {
			return a.NodeID < b.NodeID
		}
		return a.Time < b.Time
	})
}

// parseJobList decodes the collector's "['key1', 'key2']" encoding.
// Deliberately local: the builder must not depend on the collector.
func parseJobList(s string) []string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.Trim(strings.TrimSpace(p), "'")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
