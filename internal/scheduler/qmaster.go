package scheduler

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"monster/internal/simnode"
)

// Options configures a QMaster.
type Options struct {
	// ScheduleInterval is how often the dispatcher runs (UGE default
	// schedule_interval 0:0:15). Zero means 15 s.
	ScheduleInterval time.Duration
	// LoadReportInterval is how often each execd reports host load (UGE
	// default load_report_time 0:0:40 — the paper's 40 s limit on
	// in-band metric freshness). Zero means 40 s.
	LoadReportInterval time.Duration
	// MaxUnheard marks a host unavailable after this long without a
	// load report. Zero means 2 load report intervals.
	MaxUnheard time.Duration
	// AccountingCap bounds the in-memory accounting log. Zero means
	// 100000 records.
	AccountingCap int
}

func (o *Options) applyDefaults() {
	if o.ScheduleInterval == 0 {
		o.ScheduleInterval = 15 * time.Second
	}
	if o.LoadReportInterval == 0 {
		o.LoadReportInterval = 40 * time.Second
	}
	if o.MaxUnheard == 0 {
		o.MaxUnheard = 2 * o.LoadReportInterval
	}
	if o.AccountingCap == 0 {
		o.AccountingCap = 100000
	}
}

// HostReport is one execd load report as the qmaster last received it.
type HostReport struct {
	Host        string
	Addr        string // management address (the NodeId the collector tags with)
	At          time.Time
	CPUUsage    float64
	MemTotalGB  float64
	MemUsedGB   float64
	SwapTotal   float64
	SwapUsed    float64
	LoadAvg     float64
	SlotsTotal  int
	SlotsUsed   int
	IOReadMBps  float64
	IOWriteMBps float64
	JobKeys     []string
	Available   bool
}

type hostState struct {
	node       *simnode.Node
	slotsTotal int
	slotsUsed  int
	jobs       map[string]*Job // by job key
	lastReport HostReport
	lastHeard  time.Time
	reportAt   time.Time // next scheduled execd report
	available  bool
}

// QMaster is the resource manager core. It is driven by Tick (virtual
// or real time) and is safe for concurrent use — the HTTP API reads
// while the cluster stepper ticks.
type QMaster struct {
	opts Options

	mu         sync.RWMutex
	now        time.Time
	hosts      map[string]*hostState
	hostOrder  []string
	pending    []*Job
	running    map[string]*Job
	accounting []AccountingRecord
	nextID     int64
	nextSched  time.Time
	stats      Stats
}

// Stats counts scheduler activity.
type Stats struct {
	Submitted  int64
	Dispatched int64
	Completed  int64
	Failed     int64
	SchedRuns  int64
}

// NewQMaster creates a qmaster managing the given nodes, starting its
// clock at start.
func NewQMaster(nodes []*simnode.Node, start time.Time, opts Options) *QMaster {
	opts.applyDefaults()
	qm := &QMaster{
		opts:    opts,
		now:     start,
		hosts:   make(map[string]*hostState, len(nodes)),
		running: make(map[string]*Job),
		nextID:  1290000, // Quanah-era job IDs, cf. Fig 5
	}
	for i, n := range nodes {
		hs := &hostState{
			node:       n,
			slotsTotal: n.Config().Cores,
			jobs:       make(map[string]*Job),
			available:  true,
			lastHeard:  start,
			// Stagger execd reports so they do not arrive in one burst.
			reportAt: start.Add(time.Duration(i) * opts.LoadReportInterval / time.Duration(max(len(nodes), 1))),
		}
		qm.hosts[n.Name()] = hs
		qm.hostOrder = append(qm.hostOrder, n.Name())
		hs.captureReport(start)
	}
	qm.nextSched = start
	return qm
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Now reports the qmaster's current (last ticked) time.
func (qm *QMaster) Now() time.Time {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	return qm.now
}

// Stats returns activity counters.
func (qm *QMaster) Stats() Stats {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	return qm.stats
}

// Submit accepts a job specification, expanding array jobs into tasks.
// It returns the assigned job ID.
func (qm *QMaster) Submit(spec JobSpec) int64 {
	spec.normalize()
	qm.mu.Lock()
	defer qm.mu.Unlock()
	id := qm.nextID
	qm.nextID++
	for task := 1; task <= spec.Tasks; task++ {
		j := &Job{
			ID:       id,
			Owner:    spec.Owner,
			Name:     spec.Name,
			Queue:    spec.Queue,
			PE:       spec.PE,
			Slots:    spec.Slots,
			Runtime:  spec.Runtime,
			CPUFrac:  spec.CPUPerSlot,
			MemGB:    spec.MemPerSlotGB,
			State:    JobPending,
			SubmitAt: qm.now,
		}
		if spec.Tasks > 1 {
			j.TaskID = task
		}
		qm.pending = append(qm.pending, j)
		qm.stats.Submitted++
	}
	return id
}

// Tick advances the qmaster to now: completes finished jobs, collects
// due execd load reports, and runs the dispatcher if its interval has
// elapsed. Call it with monotonically non-decreasing times.
func (qm *QMaster) Tick(now time.Time) {
	qm.mu.Lock()
	defer qm.mu.Unlock()
	if now.Before(qm.now) {
		return
	}
	qm.now = now
	qm.completeLocked()
	qm.loadReportsLocked()
	if !now.Before(qm.nextSched) {
		qm.scheduleLocked()
		qm.nextSched = now.Add(qm.opts.ScheduleInterval)
		qm.stats.SchedRuns++
	}
}

// completeLocked completes the jobs that have ended, in key order, so
// the accounting log follows the seed, not the map.
func (qm *QMaster) completeLocked() {
	var done []string
	for key, j := range qm.running {
		if !j.EndAt.After(qm.now) {
			done = append(done, key)
		}
	}
	slices.Sort(done)
	for _, key := range done {
		j := qm.running[key]
		delete(qm.running, key)
		j.State = JobDone
		for _, a := range j.Alloc {
			hs := qm.hosts[a.Host]
			hs.slotsUsed -= a.Slots
			delete(hs.jobs, key)
			qm.applyDemandLocked(hs)
		}
		qm.stats.Completed++
		qm.appendAccountingLocked(j, 0, false)
	}
}

func (qm *QMaster) appendAccountingLocked(j *Job, exit int, failed bool) {
	rec := AccountingRecord{
		JobID:      j.ID,
		TaskID:     j.TaskID,
		Owner:      j.Owner,
		Name:       j.Name,
		Queue:      j.Queue,
		PE:         j.PE,
		Slots:      j.Slots,
		SubmitTime: j.SubmitAt,
		StartTime:  j.StartAt,
		EndTime:    j.EndAt,
		WallClock:  j.EndAt.Sub(j.StartAt),
		CPUSeconds: j.EndAt.Sub(j.StartAt).Seconds() * float64(j.Slots) * j.CPUFrac,
		MaxVMemGB:  float64(j.Slots) * j.MemGB,
		Hosts:      j.Hosts(),
		ExitStatus: exit,
		Failed:     failed,
	}
	qm.accounting = append(qm.accounting, rec)
	if len(qm.accounting) > qm.opts.AccountingCap {
		qm.accounting = qm.accounting[len(qm.accounting)-qm.opts.AccountingCap:]
	}
}

func (qm *QMaster) loadReportsLocked() {
	for _, name := range qm.hostOrder {
		hs := qm.hosts[name]
		if qm.now.Before(hs.reportAt) {
			continue
		}
		hs.reportAt = hs.reportAt.Add(qm.opts.LoadReportInterval)
		if hs.node.ActiveFault() == simnode.FaultHostDown {
			// No report arrives; the qmaster will eventually mark the
			// host unavailable.
			continue
		}
		hs.lastHeard = qm.now
		hs.captureReport(qm.now)
	}
	for _, name := range qm.hostOrder {
		hs := qm.hosts[name]
		avail := qm.now.Sub(hs.lastHeard) <= qm.opts.MaxUnheard
		if hs.available && !avail {
			// UGE labels the host and its resources as no longer
			// available; queued jobs avoid it (Section III-B2).
			hs.available = false
			qm.failJobsOnHostLocked(hs)
		} else if avail {
			hs.available = true
		}
	}
}

// failJobsOnHostLocked fails every job with an allocation on the dead
// host (a node crash kills the MPI job everywhere).
func (qm *QMaster) failJobsOnHostLocked(hs *hostState) {
	for _, key := range slices.Sorted(maps.Keys(hs.jobs)) {
		j := hs.jobs[key]
		delete(qm.running, key)
		j.State = JobFailed
		j.EndAt = qm.now
		for _, a := range j.Alloc {
			other := qm.hosts[a.Host]
			other.slotsUsed -= a.Slots
			delete(other.jobs, key)
			if other != hs {
				qm.applyDemandLocked(other)
			}
		}
		qm.stats.Failed++
		qm.appendAccountingLocked(j, 137, true)
	}
	hs.slotsUsed = 0
	hs.jobs = make(map[string]*Job)
	qm.applyDemandLocked(hs)
}

func (hs *hostState) captureReport(now time.Time) {
	m := hs.node.Host()
	io := hs.node.IO()
	keys := make([]string, 0, len(hs.jobs))
	for k := range hs.jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hs.lastReport = HostReport{
		Host:        hs.node.Name(),
		Addr:        hs.node.Addr(),
		At:          now,
		CPUUsage:    m.CPUUsage,
		MemTotalGB:  m.MemTotalGB,
		MemUsedGB:   m.MemUsedGB,
		SwapTotal:   m.SwapTotal,
		SwapUsed:    m.SwapUsed,
		LoadAvg:     m.LoadAvg,
		SlotsTotal:  hs.slotsTotal,
		SlotsUsed:   hs.slotsUsed,
		IOReadMBps:  io.ReadMBps,
		IOWriteMBps: io.WriteMBps,
		JobKeys:     keys,
		Available:   true,
	}
}

// applyDemandLocked pushes the host's job mix into the node physics:
// CPU and memory demand, plus fabric traffic for multi-node (MPI) jobs
// and filesystem throughput for every job. The sums run in job key
// order: float addition is not associative, and the map's order
// changes from run to run.
func (qm *QMaster) applyDemandLocked(hs *hostState) {
	var cpu, mem float64
	var netBps, ioMBps float64
	for _, key := range slices.Sorted(maps.Keys(hs.jobs)) {
		j := hs.jobs[key]
		for _, a := range j.Alloc {
			if a.Host != hs.node.Name() {
				continue
			}
			cpu += float64(a.Slots) * j.CPUFrac
			mem += float64(a.Slots) * j.MemGB
			// MPI ranks exchange ~2 MB/s per slot with their peers;
			// every job reads/writes the parallel filesystem at ~0.5
			// MB/s per slot.
			if len(j.Alloc) > 1 {
				netBps += float64(a.Slots) * 2e6
			}
			ioMBps += float64(a.Slots) * 0.5
		}
	}
	hs.node.SetDemand(cpu/float64(hs.slotsTotal), mem, len(hs.jobs))
	hs.node.SetTraffic(netBps, netBps)
	hs.node.SetIO(ioMBps*0.7, ioMBps*0.3)
}

// scheduleLocked dispatches pending jobs in FIFO order with backfill:
// a job that cannot be placed does not block later jobs that can.
func (qm *QMaster) scheduleLocked() {
	if len(qm.pending) == 0 {
		return
	}
	remaining := qm.pending[:0]
	for _, j := range qm.pending {
		if qm.placeLocked(j) {
			qm.stats.Dispatched++
		} else {
			remaining = append(remaining, j)
		}
	}
	qm.pending = remaining
}

// placeLocked tries to allocate and start a job now.
func (qm *QMaster) placeLocked(j *Job) bool {
	switch {
	case j.PE == PEMPI:
		return qm.placeMPILocked(j)
	default:
		return qm.placeSingleHostLocked(j)
	}
}

// placeSingleHostLocked handles serial and SMP jobs: all slots on one
// host, fill-up policy (most-loaded host that still fits, packing jobs
// tightly the way UGE's default host sort does).
func (qm *QMaster) placeSingleHostLocked(j *Job) bool {
	var best *hostState
	bestFree := -1
	for _, name := range qm.hostOrder {
		hs := qm.hosts[name]
		if !hs.available {
			continue
		}
		free := hs.slotsTotal - hs.slotsUsed
		if free < j.Slots {
			continue
		}
		// Fill-up: prefer the smallest sufficient free count.
		if bestFree == -1 || free < bestFree {
			best, bestFree = hs, free
		}
	}
	if best == nil {
		return false
	}
	qm.startLocked(j, []Allocation{{Host: best.node.Name(), Slots: j.Slots}})
	return true
}

// placeMPILocked spreads the job's slots across hosts, preferring
// emptier hosts (round-robin-ish spread, like a typical MPI PE).
func (qm *QMaster) placeMPILocked(j *Job) bool {
	type cand struct {
		hs   *hostState
		free int
	}
	var cands []cand
	totalFree := 0
	for _, name := range qm.hostOrder {
		hs := qm.hosts[name]
		if !hs.available {
			continue
		}
		free := hs.slotsTotal - hs.slotsUsed
		if free > 0 {
			cands = append(cands, cand{hs, free})
			totalFree += free
		}
	}
	if totalFree < j.Slots {
		return false
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].free > cands[b].free })
	var alloc []Allocation
	need := j.Slots
	for _, c := range cands {
		take := c.free
		if take > need {
			take = need
		}
		alloc = append(alloc, Allocation{Host: c.hs.node.Name(), Slots: take})
		need -= take
		if need == 0 {
			break
		}
	}
	qm.startLocked(j, alloc)
	return true
}

func (qm *QMaster) startLocked(j *Job, alloc []Allocation) {
	j.Alloc = alloc
	j.State = JobRunning
	j.StartAt = qm.now
	j.EndAt = qm.now.Add(j.Runtime)
	key := j.Key()
	qm.running[key] = j
	for _, a := range alloc {
		hs := qm.hosts[a.Host]
		hs.slotsUsed += a.Slots
		hs.jobs[key] = j
		qm.applyDemandLocked(hs)
	}
}

// Pending returns a snapshot of queued jobs in submit order.
func (qm *QMaster) Pending() []*Job {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	out := make([]*Job, len(qm.pending))
	copy(out, qm.pending)
	return out
}

// Running returns a snapshot of running jobs sorted by key.
func (qm *QMaster) Running() []*Job {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	out := make([]*Job, 0, len(qm.running))
	for _, j := range qm.running {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Key() < out[k].Key() })
	return out
}

// HostReports returns the latest execd report per host, in host order.
// This is the qmaster's (possibly stale, ≤40 s old) view — exactly what
// the collector can observe.
func (qm *QMaster) HostReports() []HostReport {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	out := make([]HostReport, 0, len(qm.hostOrder))
	for _, name := range qm.hostOrder {
		hs := qm.hosts[name]
		r := hs.lastReport
		r.Available = hs.available
		out = append(out, r)
	}
	return out
}

// Accounting returns completed-job records with EndTime >= since.
func (qm *QMaster) Accounting(since time.Time) []AccountingRecord {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	var out []AccountingRecord
	for _, r := range qm.accounting {
		if !r.EndTime.Before(since) {
			out = append(out, r)
		}
	}
	return out
}

// SlotsInUse reports total occupied slots (for tests and invariants).
func (qm *QMaster) SlotsInUse() int {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	n := 0
	for _, hs := range qm.hosts {
		n += hs.slotsUsed
	}
	return n
}

// checkInvariants panics if internal bookkeeping is inconsistent; used
// by tests.
func (qm *QMaster) checkInvariants() error {
	qm.mu.RLock()
	defer qm.mu.RUnlock()
	for name, hs := range qm.hosts {
		if hs.slotsUsed < 0 || hs.slotsUsed > hs.slotsTotal {
			return fmt.Errorf("host %s slots used %d out of [0,%d]", name, hs.slotsUsed, hs.slotsTotal)
		}
		sum := 0
		for _, j := range hs.jobs {
			for _, a := range j.Alloc {
				if a.Host == name {
					sum += a.Slots
				}
			}
		}
		if sum != hs.slotsUsed {
			return fmt.Errorf("host %s slots used %d but allocations sum to %d", name, hs.slotsUsed, sum)
		}
	}
	return nil
}
