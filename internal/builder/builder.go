package builder

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// Options configures a Builder.
type Options struct {
	// Concurrent selects the optimized query plan: metrics batched by
	// measurement, nodes grouped into multi-node regex predicates, and
	// the batch executed on a pool of poolWorkers goroutines. False
	// reproduces the previous builder — one query per (node, metric),
	// serially — the baseline whose Fig 10 response times motivated the
	// redesign.
	Concurrent bool
}

const (
	// poolWorkers bounds the concurrent fan-out: the pool size the
	// paper's evaluation converged on in Fig 15.
	poolWorkers = 8
	// chunkNodes is how many nodes one batched query covers.
	chunkNodes = 16
)

// Stats decomposes one Fetch into the quantities the paper's Fig 11
// breakdown reports (query vs processing) plus transport accounting
// filled in by the HTTP API.
type Stats struct {
	Queries int             `json:"queries"` // InfluxQL statements executed
	TSDB    tsdb.QueryStats `json:"tsdb"`    // storage-engine work
	Nodes   int             `json:"nodes"`
	Series  int             `json:"series"`
	Points  int             `json:"points"`
	// NonFiniteDropped counts stored NaN/±Inf values left out of the
	// response (JSON has no form for them).
	NonFiniteDropped int `json:"non_finite_dropped,omitempty"`

	BytesRaw        int64 `json:"bytes_raw,omitempty"`        // encoded JSON size
	BytesCompressed int64 `json:"bytes_compressed,omitempty"` // zlib transport size

	PlanTime   time.Duration `json:"plan_ns"`
	QueryTime  time.Duration `json:"query_ns"`
	MergeTime  time.Duration `json:"merge_ns"`
	EncodeTime time.Duration `json:"encode_ns,omitempty"`
	// CompressTime is how long the handler waited on deflate beyond
	// encoding: waiting for a free writer to hand a piece to, deflating
	// the last piece, and waiting for the others. Pieces deflated on
	// other cores while the encoder ran are not in it.
	CompressTime time.Duration `json:"compress_ns,omitempty"`
	Total        time.Duration `json:"total_ns"`
}

// Builder generates, executes, and merges the storage queries that
// answer one consumer Request.
type Builder struct {
	db    *tsdb.DB
	opts  Options
	clock clock.Clock
	// chunk is the batched plan's nodes per query: chunkNodes, or a
	// smaller width a test sets to get several chunks from a few nodes.
	chunk int
}

// New builds a Metrics Builder over a storage engine.
func New(db *tsdb.DB, opts Options) *Builder {
	return &Builder{db: db, opts: opts, clock: clock.NewReal(), chunk: chunkNodes}
}

// DB exposes the underlying storage engine (the HTTP API's /v1/stats
// endpoint reports its counters).
func (b *Builder) DB() *tsdb.DB { return b.db }

// task is one planned query and where its answer lands.
type task struct {
	stmt string
}

// Fetch answers one request: plan the queries, execute them (serially
// or on the worker pool), and merge the results into a Response.
func (b *Builder) Fetch(ctx context.Context, req Request) (*Response, Stats, error) {
	var st Stats
	t0 := b.clock.Now()
	if err := req.Validate(); err != nil {
		return nil, st, err
	}

	// Plan: resolve the node set and generate the statements.
	nodes := b.resolveNodes(&req)
	var tasks []task
	if b.opts.Concurrent {
		tasks = b.planBatched(&req, nodes)
	} else {
		tasks = b.planNaive(&req, nodes)
	}
	st.Nodes = len(nodes)
	st.PlanTime = b.clock.Now().Sub(t0)

	// Query: execute the plan.
	tq := b.clock.Now()
	width := 1
	if b.opts.Concurrent {
		width = poolWorkers
	}
	results, err := b.run(ctx, tasks, width)
	if err != nil {
		return nil, st, err
	}
	st.Queries = len(tasks)
	st.QueryTime = b.clock.Now().Sub(tq)

	// Merge: fold every result into the single response document.
	tm := b.clock.Now()
	resp, idx := newResponse(&req, nodes)
	for _, res := range results {
		st.TSDB.Add(res.Stats)
		series, points, nonFinite := mergeResult(resp, idx, res)
		st.Series += series
		st.Points += points
		st.NonFiniteDropped += nonFinite
	}
	if req.IncludeJobs {
		if err := b.fetchJobs(ctx, &req, resp, &st); err != nil {
			return nil, st, err
		}
	}
	now := b.clock.Now()
	st.MergeTime = now.Sub(tm)
	st.Total = now.Sub(t0)
	return resp, st, nil
}

// resolveNodes returns the sorted node set the response covers: the
// requested subset, or every NodeId present in the requested
// measurements.
func (b *Builder) resolveNodes(req *Request) []string {
	if len(req.Nodes) > 0 {
		nodes := append([]string(nil), req.Nodes...)
		sort.Strings(nodes)
		return nodes
	}
	seen := make(map[string]bool)
	var nodes []string
	for _, m := range req.metrics() {
		for _, v := range b.db.TagValues(m.Measurement, "NodeId") {
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	sort.Strings(nodes)
	return nodes
}

// planNaive reproduces the previous builder: one statement per
// (node, metric) pair — 64 nodes × 10 metrics = 640 queries, each
// paying its own parse, index-match, and shard-scan setup.
func (b *Builder) planNaive(req *Request, nodes []string) []task {
	metrics := req.metrics()
	tasks := make([]task, 0, len(nodes)*len(metrics))
	for _, node := range nodes {
		for _, m := range metrics {
			where := fmt.Sprintf(`"NodeId" = '%s' AND "Label" = '%s' AND %s`, node, m.Label, timeBounds(req))
			tasks = append(tasks, task{stmt: selectStmt(req, m.Measurement, where)})
		}
	}
	return tasks
}

// planBatched is the optimized plan: metrics grouped by measurement,
// nodes grouped into chunks, one statement per (measurement, chunk)
// with a multi-node regex predicate — 64 nodes × 10 metrics collapses
// to ~12 queries.
func (b *Builder) planBatched(req *Request, nodes []string) []task {
	byMeasurement := make(map[string][]string)
	var order []string
	for _, m := range req.metrics() {
		if _, ok := byMeasurement[m.Measurement]; !ok {
			order = append(order, m.Measurement)
		}
		byMeasurement[m.Measurement] = append(byMeasurement[m.Measurement], m.Label)
	}
	var tasks []task
	for _, meas := range order {
		labels := byMeasurement[meas]
		var labelCond string
		if len(labels) == 1 {
			labelCond = fmt.Sprintf(`"Label" = '%s'`, labels[0])
		} else {
			labelCond = fmt.Sprintf(`"Label" =~ /%s/`, alternation(labels))
		}
		for lo := 0; lo < len(nodes); lo += b.chunk {
			hi := min(lo+b.chunk, len(nodes))
			where := fmt.Sprintf(`"NodeId" =~ /%s/ AND %s AND %s`,
				alternation(nodes[lo:hi]), labelCond, timeBounds(req))
			tasks = append(tasks, task{stmt: selectStmt(req, meas, where)})
		}
	}
	return tasks
}

// alternation renders values as an anchored regex alternation,
// ^(a|b|c)$, quoting regex metacharacters and the / delimiter.
func alternation(values []string) string {
	quoted := make([]string, len(values))
	for i, v := range values {
		quoted[i] = strings.ReplaceAll(regexp.QuoteMeta(v), "/", `\/`)
	}
	return "^(" + strings.Join(quoted, "|") + ")$"
}

// timeBounds renders the end-exclusive window predicate.
func timeBounds(req *Request) string {
	return fmt.Sprintf("time >= %d AND time < %d", req.Start.Unix(), req.End.Unix())
}

// selectStmt renders the projection and grouping shared by both plans.
// Every statement groups by NodeId and Label so merge sees uniform
// per-(node, metric) series regardless of plan shape.
func selectStmt(req *Request, measurement, where string) string {
	if req.Interval <= 0 {
		return fmt.Sprintf(`SELECT "Reading" FROM %q WHERE %s GROUP BY "NodeId", "Label"`, measurement, where)
	}
	return fmt.Sprintf(`SELECT %s("Reading") FROM %q WHERE %s GROUP BY time(%ds), "NodeId", "Label"`,
		req.aggregate(), measurement, where, int64(req.Interval.Seconds()))
}

// run executes the tasks on up to width workers and returns each
// answer at its task's index. Width 1 is the previous builder's serial
// loop, run on the calling goroutine; poolWorkers is the Fig 15
// fan-out, whose statements scan their snapshots concurrently. The
// first failure cancels the context the statements run under, so those
// in flight stop at their next block and no worker starts another. A
// done ctx is returned as it is.
func (b *Builder) run(ctx context.Context, tasks []task, width int) ([]*tsdb.Result, error) {
	qctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	results := make([]*tsdb.Result, len(tasks))
	var next atomic.Int64
	work := func(ctx context.Context) {
		for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
			q, err := tsdb.Parse(tasks[i].stmt)
			if err == nil {
				results[i], err = b.db.Exec(ctx, q)
			}
			if err != nil {
				fail(fmt.Errorf("builder: query %d: %w", i, err))
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(width, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(qctx)
		}()
	}
	work(qctx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := context.Cause(qctx); err != nil {
		return nil, err
	}
	return results, nil
}

// fetchJobs runs the two correlation queries (JobsInfo grouped by
// JobId, NodeJobs grouped by NodeId) and merges them. Jobs are global:
// a node-subset request still returns every job in the window, because
// the consumer-side join needs the full job table.
func (b *Builder) fetchJobs(ctx context.Context, req *Request, resp *Response, st *Stats) error {
	cols := make([]string, len(jobsInfoColumns))
	for i, c := range jobsInfoColumns {
		cols[i] = fmt.Sprintf("%q", c)
	}
	results, err := b.run(ctx, []task{
		{stmt: fmt.Sprintf(`SELECT %s FROM "JobsInfo" WHERE %s GROUP BY "JobId"`, strings.Join(cols, ", "), timeBounds(req))},
		{stmt: fmt.Sprintf(`SELECT "JobList" FROM "NodeJobs" WHERE %s GROUP BY "NodeId"`, timeBounds(req))},
	}, 1)
	if err != nil {
		return err
	}
	for _, res := range results {
		st.Queries++
		st.TSDB.Add(res.Stats)
	}
	mergeJobs(resp, results[0])
	mergeNodeJobs(resp, results[1])
	return nil
}
