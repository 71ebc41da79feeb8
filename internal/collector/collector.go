package collector

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monster/internal/clock"
	"monster/internal/redfish"
	"monster/internal/scheduler"
	"monster/internal/simnode"
	"monster/internal/tsdb"
)

// bmcConcurrency bounds the asynchronous Redfish fan-out.
const bmcConcurrency = 64

// Options configures a Collector.
type Options struct {
	// Schema selects the database layout (SchemaV2 by default).
	Schema SchemaVersion
	// FilterHealth stores node health only on state transitions
	// (Section III-B3). Enabled by default under SchemaV2; SchemaV1
	// always stores every sample.
	FilterHealth *bool
	// UseTelemetry sweeps each BMC with one Telemetry Service
	// MetricReport request instead of four per-category GETs — the
	// paper's "upcoming telemetry model" future work. Requires BMC
	// firmware that implements the service.
	UseTelemetry bool
	// CollectNetwork adds a fifth category (the NIC's EthernetInterface
	// statistics) to each sweep, and stores filesystem throughput from
	// the resource manager — both named as missing in the paper's
	// Section VI.
	CollectNetwork bool
	// Emit receives each cycle's points — the collector's only output.
	// The ingest pipeline's poll receiver binds it (SetEmit); batching
	// and write accounting live in the pipeline's tsdb sink. A cycle
	// with no Emit bound fails rather than drop its points.
	Emit func(points []tsdb.Point) error
	// Clock times each cycle's sweep and total (CycleResult). Nil means
	// the real clock. Cycles are driven from outside, one CollectOnce
	// per interval boundary (core.System.AdvanceCollecting).
	Clock clock.Clock
}

func (o *Options) applyDefaults() {
	if o.FilterHealth == nil {
		v := true
		o.FilterHealth = &v
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
}

// Stats counts collector activity.
type Stats struct {
	Cycles          int64
	PointsWritten   int64
	BMCRequests     int64
	BMCFailures     int64
	NodesSwept      int64
	NodesFailed     int64
	JobsTracked     int64
	FinishEstimates int64
	FinishExact     int64
	PointsSkipped   int64 // points Validate refused, dropped alone (CollectOnce)
	LastSweep       time.Duration
	LastCycle       time.Duration // the last CycleResult.TotalTime: sweep + pre-processing
}

// Collector is the centralized collecting agent.
type Collector struct {
	opts  Options
	nodes []string // management addresses
	rf    *redfish.Client
	sched SchedulerSource

	mu         sync.Mutex
	lastHealth map[string]map[string]int64 // node -> label -> last code
	lastJobs   map[string]map[string]bool  // node -> job keys present last cycle
	jobs       map[string]*JobInfo         // job key -> last known info
	lastAcct   time.Time
	stats      Stats
}

// New builds a collector for the given node addresses.
func New(nodes []string, rf *redfish.Client, sched SchedulerSource, opts Options) *Collector {
	opts.applyDefaults()
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	return &Collector{
		opts:       opts,
		nodes:      sorted,
		rf:         rf,
		sched:      sched,
		lastHealth: make(map[string]map[string]int64),
		lastJobs:   make(map[string]map[string]bool),
		jobs:       make(map[string]*JobInfo),
	}
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SetEmit binds the collector's output (see Options.Emit). It is how
// the ingest pipeline's poll receiver binds the collector without
// rebuilding it.
func (c *Collector) SetEmit(fn func(points []tsdb.Point) error) {
	c.mu.Lock()
	c.opts.Emit = fn
	c.mu.Unlock()
}

// CycleResult summarizes one collection cycle.
type CycleResult struct {
	Points    int
	NodesOK   int
	NodesFail int
	SweepTime time.Duration
	// TotalTime is the sweep plus pre-processing: it stops before the
	// points are handed to Emit, whose write the sink times.
	TotalTime time.Duration
}

// CollectOnce performs one complete collection cycle stamped at now.
// A ctx cancelled by the end of the sweep stops the cycle: it returns
// ctx's error, delivers nothing and counts none of its BMC requests,
// since every request the cancellation cut off reads as a failed node.
func (c *Collector) CollectOnce(ctx context.Context, now time.Time) (CycleResult, error) {
	start := c.opts.Clock.Now()
	var res CycleResult

	var tally sweepTally
	samples := c.sweepBMCs(ctx, now, &tally)
	sweepEnd := c.opts.Clock.Now()
	res.SweepTime = sweepEnd.Sub(start)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	c.mu.Lock()
	c.stats.BMCRequests += tally.requests.Load()
	c.stats.BMCFailures += tally.failures.Load()
	c.mu.Unlock()

	points := make([]tsdb.Point, 0, 16*len(samples))
	for _, s := range samples {
		if s.OK {
			res.NodesOK++
		} else {
			res.NodesFail++
			continue
		}
		points = append(points, c.bmcPoints(s)...)
	}

	schedPoints, err := c.collectScheduler(ctx, now)
	if err == nil {
		points = append(points, schedPoints...)
	}

	// A point Validate refuses (an outside string such as a node name
	// or job owner that holds a line break) is dropped and counted on
	// its own, so it cannot fail the rest of the cycle's batch.
	n := len(points)
	points = slices.DeleteFunc(points, func(p tsdb.Point) bool { return p.Validate() != nil })
	skipped := int64(n - len(points))

	// The cycle's own time stops at the hand-off: deliver runs the
	// storage write, which its sink times itself.
	res.Points = len(points)
	res.TotalTime = c.opts.Clock.Now().Sub(start)
	if werr := c.deliver(points); werr != nil && err == nil {
		err = werr
	}

	c.mu.Lock()
	c.stats.Cycles++
	c.stats.PointsWritten += int64(len(points))
	c.stats.PointsSkipped += skipped
	c.stats.NodesSwept += int64(res.NodesOK)
	c.stats.NodesFailed += int64(res.NodesFail)
	c.stats.LastSweep = res.SweepTime
	c.stats.LastCycle = res.TotalTime
	c.mu.Unlock()
	return res, err
}

// sweepTally counts one sweep's BMC requests and the ones that failed.
type sweepTally struct{ requests, failures atomic.Int64 }

// sweepBMCs queries all four Redfish categories on every node
// asynchronously ("Metrics Collector sends all requests asynchronously
// and waits for the responses").
func (c *Collector) sweepBMCs(ctx context.Context, now time.Time, tally *sweepTally) []NodeSample {
	samples := make([]NodeSample, len(c.nodes))
	sem := make(chan struct{}, bmcConcurrency)
	var wg sync.WaitGroup
	for i, addr := range c.nodes {
		i, addr := i, addr
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			samples[i] = c.sweepNode(ctx, addr, now, tally)
		}()
	}
	wg.Wait()
	return samples
}

func (c *Collector) sweepNode(ctx context.Context, addr string, now time.Time, tally *sweepTally) NodeSample {
	if c.opts.UseTelemetry {
		return c.sweepNodeTelemetry(ctx, addr, now, tally)
	}
	s := NodeSample{Node: addr, Time: now.Unix()}
	var (
		thermal *redfish.Thermal
		power   *redfish.Power
		system  *redfish.System
		manager *redfish.Manager
		nic     *redfish.EthernetInterface
	)
	var wg sync.WaitGroup
	var errs [5]error
	requests := int64(4)
	wg.Add(4)
	go func() { defer wg.Done(); thermal, errs[0] = c.rf.Thermal(ctx, addr) }()
	go func() { defer wg.Done(); power, errs[1] = c.rf.Power(ctx, addr) }()
	go func() { defer wg.Done(); system, errs[2] = c.rf.System(ctx, addr) }()
	go func() { defer wg.Done(); manager, errs[3] = c.rf.Manager(ctx, addr) }()
	if c.opts.CollectNetwork {
		requests++
		wg.Add(1)
		go func() { defer wg.Done(); nic, errs[4] = c.rf.NIC(ctx, addr) }()
	}
	wg.Wait()

	var failed int64
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	tally.requests.Add(requests)
	tally.failures.Add(failed)
	if failed > 0 {
		return s // OK stays false: the sweep failed for this node
	}
	s.OK = true
	if nic != nil {
		s.HasNet = true
		s.NICRxBps = nic.Oem.RxBps
		s.NICTxBps = nic.Oem.TxBps
	}
	for _, temp := range thermal.Temperatures {
		switch temp.Name {
		case "CPU1 Temp":
			s.CPUTempC[0] = temp.ReadingCelsius
		case "CPU2 Temp":
			s.CPUTempC[1] = temp.ReadingCelsius
		case "System Board Inlet Temp":
			s.InletTempC = temp.ReadingCelsius
		}
	}
	for i, fan := range thermal.Fans {
		if i < 4 {
			s.FanRPM[i] = fan.Reading
		}
	}
	if len(power.PowerControl) > 0 {
		s.PowerW = power.PowerControl[0].PowerConsumedWatts
	}
	s.HostHealth = healthFromString(system.Status.Health)
	s.BMCHealth = healthFromString(manager.Status.Health)
	return s
}

// sweepNodeTelemetry collects the whole node in one MetricReport.
func (c *Collector) sweepNodeTelemetry(ctx context.Context, addr string, now time.Time, tally *sweepTally) NodeSample {
	s := NodeSample{Node: addr, Time: now.Unix()}
	report, err := c.rf.MetricReport(ctx, addr)
	tally.requests.Add(1)
	if err != nil {
		tally.failures.Add(1)
		return s
	}
	s.OK = true
	s.CPUTempC[0], _ = report.Value(redfish.MetricCPU1Temp)
	s.CPUTempC[1], _ = report.Value(redfish.MetricCPU2Temp)
	s.InletTempC, _ = report.Value(redfish.MetricInletTemp)
	for i := 0; i < 4; i++ {
		s.FanRPM[i], _ = report.Value(fmt.Sprintf("%s%d", redfish.MetricFanPrefix, i+1))
	}
	s.PowerW, _ = report.Value(redfish.MetricPower)
	if c.opts.CollectNetwork {
		rx, okRx := report.Value(redfish.MetricNICRx)
		tx, okTx := report.Value(redfish.MetricNICTx)
		if okRx && okTx {
			s.HasNet = true
			s.NICRxBps, s.NICTxBps = rx, tx
		}
	}
	if h, ok := report.StringValue(redfish.MetricBMCHealth); ok {
		s.BMCHealth = healthFromString(h)
	}
	if h, ok := report.StringValue(redfish.MetricHostHealth); ok {
		s.HostHealth = healthFromString(h)
	}
	return s
}

// bmcPoints pre-processes one sample into schema points.
func (c *Collector) bmcPoints(s NodeSample) []tsdb.Point {
	if c.opts.Schema == SchemaV1 {
		return bmcPointsV1(s)
	}
	changed := func(label string, code int64) bool { return true }
	if *c.opts.FilterHealth {
		changed = func(label string, code int64) bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			m, ok := c.lastHealth[s.Node]
			if !ok {
				m = make(map[string]int64)
				c.lastHealth[s.Node] = m
			}
			prev, seen := m[label]
			m[label] = code
			// Store the first observation and every transition; steady
			// healthy (and steady abnormal) states are redundant.
			return !seen || prev != code
		}
	}
	return bmcPointsV2(s, changed)
}

// collectScheduler queries the resource manager and pre-processes jobs.
func (c *Collector) collectScheduler(ctx context.Context, now time.Time) ([]tsdb.Point, error) {
	t := now.Unix()
	hosts, err := c.sched.Hosts(ctx)
	if err != nil {
		return nil, err
	}
	jobs, err := c.sched.Jobs(ctx)
	if err != nil {
		return nil, err
	}

	var pts []tsdb.Point
	currentJobs := make(map[string]map[string]bool, len(hosts))
	for _, h := range hosts {
		// Tag scheduler-sourced points with the same NodeId the BMC
		// sweep uses (the management address, as in the paper's Fig 4)
		// so per-node queries join both sources.
		node := h.Addr
		if node == "" {
			node = h.Hostname
		}
		if c.opts.Schema == SchemaV1 {
			pts = append(pts, ugePointsV1(h, node, t)...)
		} else {
			pts = append(pts, ugePointsV2(h, node, t)...)
			if c.opts.CollectNetwork {
				pts = append(pts, fsPointsV2(h, node, t)...)
			}
		}
		pts = append(pts, nodeJobsPoint(node, h.JobList, t))
		set := make(map[string]bool, len(h.JobList))
		for _, k := range h.JobList {
			set[k] = true
		}
		currentJobs[node] = set
	}

	pts = append(pts, c.processJobs(jobs, currentJobs, now, t)...)

	// Exact finish times from accounting supersede estimates
	// ("This estimated finish time can be updated when ARCo provides an
	// accurate finish time").
	c.mu.Lock()
	since := c.lastAcct
	c.lastAcct = now
	c.mu.Unlock()
	if recs, err := c.sched.Accounting(ctx, since); err == nil {
		for _, rec := range recs {
			key := recKey(rec.JobID, rec.TaskID)
			c.mu.Lock()
			ji, ok := c.jobs[key]
			if ok {
				end, _ := time.Parse(time.RFC3339, rec.EndTime)
				ji.FinishTime = epoch(end)
				ji.Estimated = false
				c.stats.FinishExact++
				pts = append(pts, c.jobPoint(*ji, t))
			}
			c.mu.Unlock()
		}
	}
	return pts, nil
}

func recKey(id int64, task int) string {
	if task > 0 {
		return (&JobInfo{JobID: id, TaskID: task}).keyString()
	}
	return (&JobInfo{JobID: id}).keyString()
}

func (ji *JobInfo) keyString() string {
	if ji.TaskID > 0 {
		return itoa(ji.JobID) + "." + itoa(int64(ji.TaskID))
	}
	return itoa(ji.JobID)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// processJobs derives JobInfo records, emits new/changed jobs, and
// estimates finish times by diffing consecutive job lists ("If a job is
// in the previous list, but not in the current job list, then that job
// should be completed before the current collection interval").
func (c *Collector) processJobs(entries []scheduler.JobEntry, currentJobs map[string]map[string]bool, now time.Time, t int64) []tsdb.Point {
	c.mu.Lock()
	defer c.mu.Unlock()

	var pts []tsdb.Point
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		ji := jobInfoFromEntry(e)
		seen[ji.Key] = true
		prev, known := c.jobs[ji.Key]
		if !known {
			c.jobs[ji.Key] = &ji
			c.stats.JobsTracked++
			pts = append(pts, c.jobPoint(ji, t))
			continue
		}
		// Re-emit when the job starts running (start time learned).
		if prev.StartTime == 0 && ji.StartTime != 0 {
			ji.FinishTime = prev.FinishTime
			*prev = ji
			pts = append(pts, c.jobPoint(ji, t))
		}
	}

	// Diff: jobs present on some node last cycle but on none now, and
	// absent from the current qstat listing, finished within the last
	// interval.
	present := make(map[string]bool)
	for _, set := range currentJobs {
		for k := range set {
			present[k] = true
		}
	}
	// Gone jobs are emitted in key order, not the maps' order.
	var gone []string
	for _, lastSet := range c.lastJobs {
		for k := range lastSet {
			if !present[k] && !seen[k] {
				gone = append(gone, k)
			}
		}
	}
	slices.Sort(gone)
	for _, k := range slices.Compact(gone) {
		ji, ok := c.jobs[k]
		if !ok || ji.FinishTime > 0 {
			continue
		}
		ji.FinishTime = t
		ji.Estimated = true
		c.stats.FinishEstimates++
		pts = append(pts, c.jobPoint(*ji, t))
	}
	c.lastJobs = currentJobs
	return pts
}

func (c *Collector) jobPoint(ji JobInfo, t int64) tsdb.Point {
	if c.opts.Schema == SchemaV1 {
		return jobsInfoPointsV1(ji, t)
	}
	return jobsInfoPointV2(ji, t)
}

// deliver hands the cycle's points to the bound Emit hook (the ingest
// pipeline); its failure surfaces so the cycle reports it.
func (c *Collector) deliver(points []tsdb.Point) error {
	c.mu.Lock()
	emit := c.opts.Emit
	c.mu.Unlock()
	if emit == nil {
		return fmt.Errorf("collector: no Emit bound: %d points not delivered", len(points))
	}
	return emit(points)
}

func healthFromString(s string) simnode.Health {
	switch s {
	case string(simnode.HealthWarning):
		return simnode.HealthWarning
	case string(simnode.HealthCritical):
		return simnode.HealthCritical
	default:
		return simnode.HealthOK
	}
}

// jobInfoFromEntry converts a scheduler job entry into the collector's
// pre-processed record: RFC3339 date strings become epoch integers, and
// core/node counts are summarized ("based on the Job List on Node
// information, we can summarize how many cores a job uses and how many
// nodes a job takes up").
func jobInfoFromEntry(e scheduler.JobEntry) JobInfo {
	ji := JobInfo{
		JobID:     e.JobID,
		TaskID:    e.TaskID,
		User:      e.Owner,
		Name:      e.Name,
		Queue:     e.Queue,
		Slots:     e.Slots,
		NodeCount: len(e.Hosts),
	}
	ji.Key = ji.keyString()
	if ts, err := time.Parse(time.RFC3339, e.SubmissionTime); err == nil {
		ji.SubmitTime = ts.Unix()
	}
	if e.StartTime != "" {
		if ts, err := time.Parse(time.RFC3339, e.StartTime); err == nil {
			ji.StartTime = ts.Unix()
		}
	}
	return ji
}
