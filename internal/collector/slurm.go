package collector

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"monster/internal/clock"
	"monster/internal/scheduler"
)

// SlurmSchedulerSource implements SchedulerSource against a
// slurmrestd-style REST API ("Metrics Collector also supports query
// metrics from Slurm", Section III-B2). Slurm's node records do not
// carry a per-node job list, so the source reconstructs it from the
// job records' node lists; host and job queries therefore share one
// fetch per cycle.
type SlurmSchedulerSource struct {
	BaseURL string
	Client  *http.Client
	// Clock stamps the job-cache freshness window. Nil selects the
	// wall clock.
	Clock clock.Clock

	mu       sync.Mutex
	lastJobs []scheduler.SlurmJob
	jobsAt   time.Time
	bytes    atomic.Int64
}

// NewSlurmSchedulerSource builds a source; client nil means
// http.DefaultClient.
func NewSlurmSchedulerSource(baseURL string, client *http.Client) *SlurmSchedulerSource {
	if client == nil {
		client = http.DefaultClient
	}
	return &SlurmSchedulerSource{BaseURL: baseURL, Client: client}
}

func (s *SlurmSchedulerSource) clk() clock.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return clock.NewReal()
}

func (s *SlurmSchedulerSource) get(ctx context.Context, path string, out interface{}) error {
	return getJSON(ctx, s.Client, "slurm", s.BaseURL, path, &s.bytes, out)
}

func (s *SlurmSchedulerSource) fetchJobs(ctx context.Context) ([]scheduler.SlurmJob, error) {
	var resp struct {
		Jobs []scheduler.SlurmJob `json:"jobs"`
	}
	if err := s.get(ctx, "/slurm/v1/jobs", &resp); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lastJobs = resp.Jobs
	s.jobsAt = s.clk().Now()
	s.mu.Unlock()
	return resp.Jobs, nil
}

// Hosts implements SchedulerSource by translating Slurm node records
// and attaching job lists reconstructed from the job table.
func (s *SlurmSchedulerSource) Hosts(ctx context.Context) ([]scheduler.HostEntry, error) {
	var resp struct {
		Nodes []scheduler.SlurmNode `json:"nodes"`
	}
	if err := s.get(ctx, "/slurm/v1/nodes", &resp); err != nil {
		return nil, err
	}
	jobs, err := s.fetchJobs(ctx)
	if err != nil {
		return nil, err
	}
	jobsByNode := make(map[string][]string)
	for _, j := range jobs {
		if j.JobState != "RUNNING" {
			continue
		}
		key := slurmJobKey(j)
		for _, node := range strings.Split(j.Nodes, ",") {
			if node != "" {
				jobsByNode[node] = append(jobsByNode[node], key)
			}
		}
	}
	out := make([]scheduler.HostEntry, 0, len(resp.Nodes))
	for _, n := range resp.Nodes {
		state := "ok"
		if n.State == "DOWN" || n.State == "DRAIN" {
			state = "unavailable"
		}
		memTotal := float64(n.RealMemory) / 1024
		memUsed := float64(n.AllocMemory) / 1024
		out = append(out, scheduler.HostEntry{
			Hostname:   n.Name,
			Addr:       n.Address,
			State:      state,
			SlotsTotal: n.CPUs,
			SlotsUsed:  n.AllocCPUs,
			CPUUsage:   safeRatio(float64(n.AllocCPUs), float64(n.CPUs)),
			MemTotalGB: memTotal,
			MemUsedGB:  memUsed,
			LoadAvg:    n.CPULoad,
			JobList:    jobsByNode[n.Name],
		})
	}
	return out, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func slurmJobKey(j scheduler.SlurmJob) string {
	if j.ArrayTask > 0 {
		return fmt.Sprintf("%d.%d", j.JobID, j.ArrayTask)
	}
	return fmt.Sprintf("%d", j.JobID)
}

// Jobs implements SchedulerSource by translating Slurm job records into
// the collector's UGE-shaped entries.
func (s *SlurmSchedulerSource) Jobs(ctx context.Context) ([]scheduler.JobEntry, error) {
	now := s.clk().Now()
	s.mu.Lock()
	jobs := s.lastJobs
	fresh := now.Sub(s.jobsAt) < 5*time.Second
	s.mu.Unlock()
	if !fresh {
		var err error
		if jobs, err = s.fetchJobs(ctx); err != nil {
			return nil, err
		}
	}
	out := make([]scheduler.JobEntry, 0, len(jobs))
	for _, j := range jobs {
		e := scheduler.JobEntry{
			JobID:          j.JobID,
			TaskID:         j.ArrayTask,
			Owner:          j.UserName,
			Name:           j.Name,
			Queue:          j.Partition,
			Slots:          j.NumCPUs,
			SubmissionTime: time.Unix(j.SubmitTime, 0).UTC().Format(time.RFC3339),
		}
		switch j.JobState {
		case "RUNNING":
			e.State = "r"
			e.StartTime = time.Unix(j.StartTime, 0).UTC().Format(time.RFC3339)
			if j.Nodes != "" {
				e.Hosts = strings.Split(j.Nodes, ",")
			}
		case "PENDING":
			e.State = "qw"
		default:
			e.State = strings.ToLower(j.JobState)
		}
		out = append(out, e)
	}
	return out, nil
}

// Accounting implements SchedulerSource via the slurmdbd-style
// endpoint.
func (s *SlurmSchedulerSource) Accounting(ctx context.Context, since time.Time) ([]scheduler.AccountingEntry, error) {
	var resp struct {
		Jobs []scheduler.SlurmDBJob `json:"jobs"`
	}
	if err := s.get(ctx, fmt.Sprintf("/slurmdb/v1/jobs?start_time=%d", since.Unix()), &resp); err != nil {
		return nil, err
	}
	out := make([]scheduler.AccountingEntry, 0, len(resp.Jobs))
	for _, j := range resp.Jobs {
		failed := 0
		if j.State == "FAILED" {
			failed = 1
		}
		var hosts []string
		if j.NodeList != "" {
			hosts = strings.Split(j.NodeList, ",")
		}
		out = append(out, scheduler.AccountingEntry{
			JobID:      j.JobID,
			TaskID:     j.ArrayTask,
			Owner:      j.UserName,
			Name:       j.Name,
			Queue:      j.Partition,
			Slots:      j.AllocCPUs,
			SubmitTime: time.Unix(j.SubmitTime, 0).UTC().Format(time.RFC3339),
			StartTime:  time.Unix(j.StartTime, 0).UTC().Format(time.RFC3339),
			EndTime:    time.Unix(j.EndTime, 0).UTC().Format(time.RFC3339),
			WallClock:  j.Elapsed,
			CPU:        j.CPUSeconds,
			MaxVMem:    j.MaxRSSGB,
			Hosts:      hosts,
			ExitStatus: j.ExitCode,
			Failed:     failed,
		})
	}
	return out, nil
}

// BytesRead implements SchedulerSource.
func (s *SlurmSchedulerSource) BytesRead() int64 { return s.bytes.Load() }
