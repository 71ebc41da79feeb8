package bench

import (
	"math"
	"sync/atomic"
	"time"
)

// rackNodes is the drill-down unit: one rack of the fleet.
const rackNodes = 16

// cyclePeriod is the wall time between two collection cycles the
// mixed-live driver owes: 60 simulated seconds every 100 ms.
const cyclePeriod = 100 * time.Millisecond

// deckSize is the length of the rack schedule: long enough to hold
// the Zipf proportions of a dozen racks, short enough that a
// ten-second window deals it several times.
const deckSize = 64

// rackDeck is the order in which a run's requests pick racks: a deck
// holding rack k in proportion to 1/(k+1)^1.2, shuffled by the seed and
// dealt round and round. A few racks are hot and the rest cold, so the
// decode cache sees both hits and misses; dealing from a deck rather
// than drawing each pick means every run sees the same mix and only
// its order depends on the seed.
func rackDeck(racks int, seed int64) []int {
	total := 0.0
	for k := 0; k < racks; k++ {
		total += math.Pow(float64(k+1), -1.2)
	}
	deck := make([]int, 0, deckSize)
	acc := 0.0
	for k := 0; k < racks; k++ {
		acc += math.Pow(float64(k+1), -1.2) / total
		for len(deck) < int(math.Round(acc*deckSize)) {
			deck = append(deck, k)
		}
	}
	state := uint64(seed)
	for i := len(deck) - 1; i > 0; i-- {
		j := int(splitmix(&state) % uint64(i+1))
		deck[i], deck[j] = deck[j], deck[i]
	}
	return deck
}

func rack(k int) []int {
	nodes := make([]int, rackNodes)
	for i := range nodes {
		nodes[i] = k*rackNodes + i
	}
	return nodes
}

// powerOnly selects Power/NodePower, the series the rollup chain
// materialises.
var powerOnly = []int{7}

// mixedSession is one dashboard user's refresh: three rack drill-downs
// (1 h at 1 m), one overview (as dash-6h), one power history (72 h at
// 5 m, served from the 5 m rollup tier) and one rack scan (72 h at 1 h,
// decoding that rack's sealed blocks), all ending at the latest
// collected minute. Six requests keep a session near 70 ms, so a
// ten-second window holds the hundred sessions a p90 needs.
func mixedSession(r *run, i int, now int64) []Query {
	d := r.dp.Data
	picks := 0
	pick := func() []int {
		if len(r.deck) == 0 {
			return nil // a fleet smaller than one rack: every node
		}
		k := r.deck[(4*i+picks)%len(r.deck)]
		picks++
		return rack(k)
	}
	hist := int64(d.History / time.Second)
	drill := func() Query { return Query{Kind: "drill", Start: now - 3600, End: now, Interval: 60, Nodes: pick()} }
	dash := Query{Kind: "dash", Start: now - 6*3600, End: now, Interval: 300}
	tier := Query{Kind: "tier", Start: now - hist, End: now, Interval: 300, Metrics: powerOnly}
	scan := Query{Kind: "rackscan", Start: now - hist, End: now, Interval: 3600, Nodes: pick()}
	return []Query{drill(), dash, drill(), tier, drill(), scan}
}

// driverResult is what the cycle driver hands back when it stops.
type driverResult struct {
	samples []cycleSample
	errs    []error
	rec     *Recorder
}

// driveCycles is the open-loop writer: it owes one collection cycle
// every cyclePeriod whether or not the previous one is done, and times
// each from the instant it was due, so a stall shows as latency on the
// cycles behind it. now publishes the simulation time for the client.
func (r *run) driveCycles(now *atomic.Int64, stop <-chan struct{}, out chan<- driverResult) {
	var res driverResult
	if r.opts.Trace {
		res.rec = NewRecorder()
	}
	start := clk.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * cyclePeriod)
		select {
		case <-stop:
			out <- res
			return
		case <-clk.After(due.Sub(clk.Now())):
		}
		s, err := r.cycle(i, due, res.rec)
		if err != nil {
			res.errs = append(res.errs, err)
			continue
		}
		now.Store(r.dp.Sys.Now().Unix())
		res.samples = append(res.samples, s)
	}
}

// measureMixed is the measured window of mixed-live: one closed-loop
// client running sessions beside the open-loop cycle driver.
func (r *run) measureMixed() error {
	if racks := r.dp.Data.Nodes / rackNodes; racks > 0 {
		r.deck = rackDeck(racks, r.opts.Seed)
	}
	var now atomic.Int64
	now.Store(r.dp.Sys.Now().Unix())
	pipe0 := r.dp.Sys.Ingest.Stats()
	stop := make(chan struct{})
	driven := make(chan driverResult, 1)
	go r.driveCycles(&now, stop, driven)

	ops, wall := r.readLoop(mixedSession, now.Load)
	close(stop)
	drv := <-driven
	for _, err := range drv.errs {
		r.attempt(err)
	}
	r.accounting(pipe0, r.dp.Sys.Ingest.Stats())

	r.readMetrics(ops, wall)
	byKind := make(map[string][]float64)
	requests, busyMs := 0, 0.0
	for _, op := range ops {
		if op.direct {
			continue
		}
		busyMs += op.ms
		for _, s := range op.reqs {
			if s.err == nil {
				byKind[s.kind] = append(byKind[s.kind], s.ms)
				requests++
			}
		}
	}
	// Per second the client spent waiting for answers, so the rate means
	// the same in a traced run, where some sessions are not sent.
	r.set("mix.queries_per_s", float64(requests)/(busyMs/1e3))
	for kind, ms := range byKind {
		s := sorted(ms)
		r.set("mix."+kind+"_ms_p50", Percentile(s, 50))
		if kind == "drill" && Supported(len(s), 90) {
			r.set("mix.drill_ms_p90", Percentile(s, 90))
		}
	}
	if dash := r.res.Metrics["mix.dash_ms_p50"]; dash > 0 && r.warmDashMs > 0 {
		r.set("mix.dash_slowdown", dash/r.warmDashMs)
	}
	var cyc, late []float64
	for _, s := range drv.samples {
		cyc = append(cyc, s.ms)
		late = append(late, s.lateMs)
	}
	if len(cyc) > 0 {
		s := sorted(cyc)
		r.set("mix.cycle_ms_p50", Percentile(s, 50))
		r.set("core.cycle_ms_max", s[len(s)-1])
		if l := sorted(late); Supported(len(l), 90) {
			r.set("mix.cycle_late_ms_p90", Percentile(l, 90))
		}
	}
	if r.opts.Trace {
		r.traceMetrics(ops)
		r.cycleLayerMetrics(drv.samples)
		// The driver's spans join the file under their own operation ids.
		r.rec.Merge(drv.rec, 1<<20)
	}
	return nil
}
