package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"monster/internal/builder"
	"monster/internal/core"
	"monster/internal/des"
)

// TransportResult decomposes one remote Metrics Builder request into
// query-processing time and transmission time (Fig 17), with and
// without zlib transport compression (Fig 18/19). Response sizes and
// compression ratios are measured on real JSON produced by the real
// builder at a reduced node count and extrapolated linearly in nodes;
// times come from the calibrated model.
//
// The paper's builder sends a timestamp with every sample and deflates
// at zlib's default level; RawBytes … TotalCompressed measure that
// format. The Wire* fields measure the same response as MonSTer's API
// serves it (bucketed series without their timestamps, the server's
// default level).
type TransportResult struct {
	Range           time.Duration
	QueryTime       time.Duration // query + processing (optimized config)
	RawBytes        int64         // full-scale JSON response size
	CompressedBytes int64
	CompressRatio   float64
	TxPlain         time.Duration // transmission, uncompressed
	TxCompressed    time.Duration
	CompressTime    time.Duration
	TotalPlain      time.Duration
	TotalCompressed time.Duration

	WireRawBytes        int64
	WireCompressedBytes int64
	WireTxPlain         time.Duration
	WireTotalCompressed time.Duration // query + compress + transmission
}

// responseSizer measures real response JSON bytes per output bucket by
// running the real pipeline + builder at small scale.
type responseSizer struct {
	bytesPerNodeBucket float64 // JSON bytes per node per bucket (all 10 metrics)
	compressRatio      float64
	// The same response in MonSTer's wire format.
	wireBytesPerNodeBucket float64
	wireCompressRatio      float64
}

// measureResponseShape runs the real pipeline for a short span, fetches
// through the real builder, and measures encoded/compressed sizes.
func measureResponseShape(nodes int, seed int64) (*responseSizer, error) {
	sys := core.New(core.Config{Nodes: nodes, Seed: seed})
	span := 2 * time.Hour
	if err := sys.AdvanceCollecting(context.Background(), span); err != nil {
		return nil, err
	}
	req := builder.Request{
		Start:    sys.Config.Start,
		End:      sys.Now(),
		Interval: 5 * time.Minute,
	}
	resp, _, err := sys.Builder.Fetch(context.Background(), req)
	if err != nil {
		return nil, err
	}
	// The paper's format: encoding/json over the tagged struct writes
	// every timestamp; 6 is zlib's default level.
	raw, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	comp, err := builder.Compress(raw, 6)
	if err != nil {
		return nil, err
	}
	wire, err := builder.Encode(resp)
	if err != nil {
		return nil, err
	}
	wireComp, err := builder.Compress(wire, 0)
	if err != nil {
		return nil, err
	}
	nodeBuckets := float64(nodes) * float64(span/(5*time.Minute))
	return &responseSizer{
		bytesPerNodeBucket:     float64(len(raw)) / nodeBuckets,
		compressRatio:          builder.CompressionRatio(raw, comp),
		wireBytesPerNodeBucket: float64(len(wire)) / nodeBuckets,
		wireCompressRatio:      builder.CompressionRatio(wire, wireComp),
	}, nil
}

var cachedSizer *responseSizer

func sizer() (*responseSizer, error) {
	if cachedSizer == nil {
		s, err := measureResponseShape(12, 7)
		if err != nil {
			return nil, err
		}
		cachedSizer = s
	}
	return cachedSizer, nil
}

// SimulateTransport models one remote consumer request end to end
// under the optimized configuration, reporting the plain and the
// compressed transfer side by side.
func SimulateTransport(rng time.Duration) (*TransportResult, error) {
	sz, err := sizer()
	if err != nil {
		return nil, err
	}
	cfg := Optimized()
	cfg.Range = rng
	cfg.Interval = 5 * time.Minute
	q := SimulateQuery(cfg)

	buckets := float64(rng / cfg.Interval)
	rawBytes := int64(sz.bytesPerNodeBucket * float64(cfg.Nodes) * buckets)
	compBytes := int64(float64(rawBytes) * sz.compressRatio)
	wireRaw := int64(sz.wireBytesPerNodeBucket * float64(cfg.Nodes) * buckets)
	wireComp := int64(float64(wireRaw) * sz.wireCompressRatio)

	c := &Calibration
	res := &TransportResult{
		Range:           rng,
		QueryTime:       q.Total,
		RawBytes:        rawBytes,
		CompressedBytes: compBytes,
		CompressRatio:   sz.compressRatio,
		CompressTime:    des.Seconds(float64(rawBytes) / c.CompressBandwidth),
		TxPlain:         des.Seconds(float64(rawBytes) / c.ConsumerBandwidth),
		TxCompressed:    des.Seconds(float64(compBytes) / c.ConsumerBandwidth),

		WireRawBytes:        wireRaw,
		WireCompressedBytes: wireComp,
		WireTxPlain:         des.Seconds(float64(wireRaw) / c.ConsumerBandwidth),
	}
	res.TotalPlain = res.QueryTime + res.TxPlain
	res.TotalCompressed = res.QueryTime + res.CompressTime + res.TxCompressed
	// Deflate is charged at the calibrated (level 6) bandwidth on the
	// bytes it is given; the lower default level only makes that an
	// overestimate.
	res.WireTotalCompressed = res.QueryTime + des.Seconds(float64(wireRaw)/c.CompressBandwidth) +
		des.Seconds(float64(wireComp)/c.ConsumerBandwidth)
	return res, nil
}

// CollectorSweepResult models the paper's §III-B1 measurements: the
// asynchronous Redfish sweep of the whole cluster.
type CollectorSweepResult struct {
	Nodes        int
	Requests     int
	MeanLatency  time.Duration
	SweepTime    time.Duration
	PaperSweep   time.Duration // ~55 s
	PaperLatency time.Duration // 4.29 s
}

// SimulateBMCSweep replays one full collection sweep on the DES: 4
// category requests per node, each taking the iDRAC's 4.29 s ± jitter,
// bounded by the per-controller concurrency and the collector's
// connection pool.
func SimulateBMCSweep(nodes int, seed int64) *CollectorSweepResult {
	return simulateSweep(nodes, seed, 4)
}

// SimulateTelemetrySweep models the same sweep over the Redfish
// Telemetry Service — one MetricReport request per node (the paper's
// future-work collection model).
func SimulateTelemetrySweep(nodes int, seed int64) *CollectorSweepResult {
	return simulateSweep(nodes, seed, 1)
}

func simulateSweep(nodes int, seed int64, requestsPerNode int) *CollectorSweepResult {
	if nodes <= 0 {
		nodes = QuanahNodes
	}
	c := &Calibration
	sim := des.New()
	pool := sim.NewServer("collector-pool", c.CollectorPool)
	bmcs := make([]*des.Server, nodes)
	for i := range bmcs {
		bmcs[i] = sim.NewServer(fmt.Sprintf("bmc-%d", i), c.BMCPerController)
	}
	// Deterministic per-request latency jitter without runtime rand:
	// a simple LCG keyed by seed.
	lcg := uint64(seed)*6364136223846793005 + 1442695040888963407
	nextJitter := func() time.Duration {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		frac := float64(lcg>>11) / float64(1<<53) // [0,1)
		return time.Duration((frac*2 - 1) * float64(c.BMCJitter))
	}
	jitters := make([]time.Duration, nodes*4)
	for i := range jitters {
		jitters[i] = nextJitter()
	}

	var sweep time.Duration
	sim.Spawn("collector", func(p *des.Proc) {
		g := p.Sim().NewGroup()
		g.Add(nodes * requestsPerNode)
		for n := 0; n < nodes; n++ {
			n := n
			for cat := 0; cat < requestsPerNode; cat++ {
				cat := cat
				p.Spawn("req", func(rp *des.Proc) {
					defer g.Done()
					pool.Acquire(rp, 1)
					bmcs[n].Acquire(rp, 1)
					d := c.BMCLatency + jitters[(n*4+cat)%len(jitters)]
					if d < 100*time.Millisecond {
						d = 100 * time.Millisecond
					}
					rp.Wait(d)
					bmcs[n].Release(1)
					pool.Release(1)
				})
			}
		}
		g.Join(p)
		sweep = p.Now()
	})
	if err := sim.Run(); err != nil {
		panic("experiments: sweep simulation deadlocked: " + err.Error())
	}
	return &CollectorSweepResult{
		Nodes:        nodes,
		Requests:     nodes * requestsPerNode,
		MeanLatency:  c.BMCLatency,
		SweepTime:    sweep,
		PaperSweep:   55 * time.Second,
		PaperLatency: 4290 * time.Millisecond,
	}
}
