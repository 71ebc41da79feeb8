// Command mquery is a consumer-side client for the Metrics Builder
// API — the role HiperJobViz plays in the paper. It requests a time
// range at a downsampling interval and prints the per-node series (or
// a summary), optionally using zlib transport compression.
//
//	mquery -url http://localhost:8080 -last 1h -interval 5m -agg max
//	mquery -url http://localhost:8080 -last 6h -nodes 10.101.1.1 -full
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"time"

	"monster"
	"monster/internal/builder"
	"monster/internal/clock"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "Metrics Builder API base URL")
		startS   = flag.String("start", "", "range start (RFC3339); empty uses -last")
		endS     = flag.String("end", "", "range end (RFC3339); empty means now")
		last     = flag.Duration("last", time.Hour, "query the trailing window when -start is empty")
		interval = flag.Duration("interval", 5*time.Minute, "downsampling interval")
		agg      = flag.String("agg", "max", "aggregate function (max, mean, median, ...: any the engine evaluates)")
		nodesS   = flag.String("nodes", "", "comma-separated node subset (empty = all)")
		jobs     = flag.Bool("jobs", false, "include job info")
		compress = flag.Bool("compress", true, "zlib transport compression")
		full     = flag.Bool("full", false, "print every series point (default prints a summary)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "request timeout")
		stats    = flag.Bool("stats", false, "print storage statistics and exit")
	)
	flag.Parse()

	if *stats {
		printStats(*url, *timeout)
		return
	}

	end := clock.NewReal().Now().UTC()
	if *endS != "" {
		t, err := time.Parse(time.RFC3339, *endS)
		if err != nil {
			log.Fatalf("mquery: bad -end: %v", err)
		}
		end = t
	}
	start := end.Add(-*last)
	if *startS != "" {
		t, err := time.Parse(time.RFC3339, *startS)
		if err != nil {
			log.Fatalf("mquery: bad -start: %v", err)
		}
		start = t
	}

	req := monster.Request{
		Start:       start,
		End:         end,
		Interval:    *interval,
		Aggregate:   *agg,
		IncludeJobs: *jobs,
	}
	if *nodesS != "" {
		req.Nodes = strings.Split(*nodesS, ",")
	}

	client := &monster.BuilderClient{BaseURL: *url, Compress: *compress}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := client.Fetch(ctx, req)
	if err != nil {
		log.Fatalf("mquery: %v", err)
	}

	fmt.Printf("window [%s, %s) interval %v agg %s\n", start.Format(time.RFC3339), end.Format(time.RFC3339), *interval, *agg)
	fmt.Printf("transfer: %d wire bytes, %d decoded bytes, %v\n", res.WireBytes, res.BodyBytes, res.TransferTime.Round(time.Millisecond))
	printBuilderStats(res.Stats)
	resp := res.Response
	fmt.Printf("nodes: %d\n", len(resp.Nodes))
	for _, ns := range resp.Nodes {
		if *full {
			printFull(ns)
		} else {
			printSummary(ns)
		}
	}
	if *jobs {
		fmt.Printf("jobs: %d\n", len(resp.Jobs))
		for _, j := range resp.Jobs {
			finish := "running"
			if j.FinishTime > 0 {
				finish = time.Unix(j.FinishTime, 0).UTC().Format(time.RFC3339)
			}
			fmt.Printf("  job %s user=%s slots=%d nodes=%d submit=%s finish=%s\n",
				j.JobID, j.User, j.Slots, j.NodeCount,
				time.Unix(j.SubmitTime, 0).UTC().Format(time.RFC3339), finish)
		}
	}
}

// printBuilderStats prints the server-side build breakdown carried in
// the X-Monster-Stats header: what the builder queried, how much it
// scanned, and where the time went per stage.
func printBuilderStats(st monster.BuilderStats) {
	if st.Queries == 0 {
		return // header absent (older server) — nothing to report
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	fmt.Printf("builder: %d queries, %d series, %d points merged\n", st.Queries, st.Series, st.Points)
	fmt.Printf("scanned: %d series, %d points, %d bytes (%d blocks decoded, %d from cold tier, %d pruned)\n",
		st.TSDB.SeriesScanned, st.TSDB.PointsScanned, st.TSDB.BytesScanned,
		st.TSDB.BlocksDecoded, st.TSDB.BlocksFromDisk, st.TSDB.BlocksSkipped)
	if st.TSDB.Tier != "" {
		// PointsScanned spans every query the builder merged (including
		// non-tiered ones), so only the absolute avoidance is meaningful.
		fmt.Printf("planner: served from tier %s (~%d raw points avoided)\n",
			st.TSDB.Tier, st.TSDB.TierRawEquivalent)
	}
	fmt.Printf("payload: %d bytes raw -> %d bytes compressed\n", st.BytesRaw, st.BytesCompressed)
	fmt.Printf("stages:  plan %.2fms, query %.2fms, merge %.2fms, encode %.2fms, compress %.2fms, total %.2fms\n",
		ms(st.PlanTime), ms(st.QueryTime), ms(st.MergeTime), ms(st.EncodeTime), ms(st.CompressTime), ms(st.Total))
}

func metricNames(ns monster.NodeSeries) []string {
	names := make([]string, 0, len(ns.Metrics))
	for name := range ns.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printSummary prints min/max/last per metric for one node.
func printSummary(ns monster.NodeSeries) {
	fmt.Printf("  %s:\n", ns.NodeID)
	for _, name := range metricNames(ns) {
		sd := ns.Metrics[name]
		if len(sd.Values) == 0 {
			fmt.Printf("    %-22s (no data)\n", name)
			continue
		}
		lo, hi := sd.Values[0], sd.Values[0]
		for _, v := range sd.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Printf("    %-22s %4d buckets  min=%.1f max=%.1f last=%.1f\n",
			name, len(sd.Values), lo, hi, sd.Values[len(sd.Values)-1])
	}
}

// printStats fetches and prints /v1/stats.
func printStats(baseURL string, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		log.Fatalf("mquery: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("mquery: %v", err)
	}
	defer resp.Body.Close()
	var body builder.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		log.Fatalf("mquery: %v", err)
	}
	fmt.Printf("points: %d\ndata: %.2f MB (+%.2f MB index)\nshards: %d\n",
		body.Points, float64(body.DataBytes)/1e6, float64(body.IndexBytes)/1e6, body.Shards)
	fmt.Println("measurements:")
	for _, m := range body.Measurements {
		fmt.Printf("  %-14s %6d series\n", m.Name, m.Series)
	}
	if c := body.StorageCache; c != nil {
		total := c.Hits + c.Misses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(c.Hits) / float64(total)
		}
		budget := "unbounded"
		if c.BudgetBytes > 0 {
			budget = fmt.Sprintf("%.2f MB", float64(c.BudgetBytes)/1e6)
		}
		fmt.Printf("decode cache: %d hits / %d misses (%.1f%% hit rate), %d evictions, %.2f MB resident of %s budget, %d blocks\n",
			c.Hits, c.Misses, rate, c.Evictions, float64(c.ResidentBytes)/1e6, budget, c.Entries)
	}
	if c := body.StorageCold; c != nil {
		budget := "no budget"
		if c.BudgetBytes > 0 {
			budget = fmt.Sprintf("%.2f MB budget", float64(c.BudgetBytes)/1e6)
		}
		fmt.Printf("cold tier: %d blocks spilled (%.2f MB), %d resident (%.2f MB, %s), %d files (%.2f MB), %d spills, %d reads, %d compactions\n",
			c.BlocksCold, float64(c.ColdBytes)/1e6, c.ResidentBlocks, float64(c.ResidentBytes)/1e6, budget,
			c.Files, float64(c.FileBytes)/1e6, c.Spills, c.Reads, c.Compactions)
	}
	if len(body.StorageTiers) > 0 {
		fmt.Println("rollup tiers:")
		for _, ti := range body.StorageTiers {
			fmt.Printf("  %-22s %s(%s) @%ds  %8d points  watermark=%s\n",
				ti.Target, ti.Aggregate, ti.Source, ti.IntervalS, ti.Points,
				time.Unix(ti.Watermark, 0).UTC().Format(time.RFC3339))
		}
	}
}

// printFull prints every bucket of every metric for one node.
func printFull(ns monster.NodeSeries) {
	fmt.Printf("  %s:\n", ns.NodeID)
	for _, name := range metricNames(ns) {
		sd := ns.Metrics[name]
		fmt.Printf("    %s:\n", name)
		for i := range sd.Times {
			fmt.Printf("      %s  %.2f\n", time.Unix(sd.Times[i], 0).UTC().Format(time.RFC3339), sd.Values[i])
		}
	}
}
