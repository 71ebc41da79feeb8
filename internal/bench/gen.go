package bench

import (
	"time"

	"monster/internal/builder"
	"monster/internal/tsdb"
)

// Cadence is the sampling interval of every generated series: the
// paper's 60 s collection cycle.
const Cadence = 60

// Dataset describes one seeded history: Nodes × the ten
// builder.DefaultMetrics series at 60 s cadence over [From, Start).
// The program under test only ever sees the points it yields; the
// oracle recomputes any of them from the same description.
type Dataset struct {
	Nodes int
	// Start is the deployment's simulation epoch: history ends just
	// before it and live collection cycles continue from it.
	Start time.Time
	// History is how far the generated points reach back from Start.
	History time.Duration
	Seed    int64
}

// From is the timestamp of the first generated sample.
func (d Dataset) From() int64 { return d.Start.Add(-d.History).Unix() }

// Steps is the number of samples per series.
func (d Dataset) Steps() int { return int(d.History / (Cadence * time.Second)) }

// Points is the number of samples the whole dataset holds.
func (d Dataset) Points() int64 {
	return int64(d.Nodes) * int64(len(builder.DefaultMetrics())) * int64(d.Steps())
}

// shape is the sensor model of one metric: a random walk over a
// quantised grid, like a BMC that reports whole degrees or tens of RPM.
type shape struct {
	lo, hi  float64 // clamp range
	quantum float64 // grid step
}

// shapes parallels builder.DefaultMetrics(): seven thermal series
// (three temperatures, four fans), node power, CPU and memory usage.
var shapes = []shape{
	{30, 90, 1}, {30, 90, 1}, {15, 35, 1},
	{4000, 14000, 60}, {4000, 14000, 60}, {4000, 14000, 60}, {4000, 14000, 60},
	{100, 420, 2},
	{0, 100, 0.5}, {0, 100, 0.25},
}

// walk is the state of one series. The generator is a splitmix64
// stream keyed by (seed, node, metric), so any series can be replayed
// on its own without generating the others.
type walk struct {
	state uint64
	level int64 // current value in quanta above lo
	span  int64 // number of quanta between lo and hi
	shape shape
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newWalk(seed int64, node, metric int) walk {
	w := walk{
		state: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(node)<<20 ^ uint64(metric)<<8,
		shape: shapes[metric],
	}
	w.span = int64((w.shape.hi - w.shape.lo) / w.shape.quantum)
	w.level = int64(splitmix(&w.state) % uint64(w.span+1))
	return w
}

// next advances the walk one sample: most steps hold the value (real
// sensors are quiet), the rest move up or down by one to three quanta.
func (w *walk) next() float64 {
	r := splitmix(&w.state)
	switch r & 7 {
	case 0:
		w.level += int64(r>>8)%3 + 1
	case 1:
		w.level -= int64(r>>8)%3 + 1
	}
	if w.level < 0 {
		w.level = 0
	} else if w.level > w.span {
		w.level = w.span
	}
	return w.shape.lo + float64(w.level)*w.shape.quantum
}

// Series replays one (node, metric) series in full; Series(...)[k] is
// the sample at From()+k*Cadence. This is the oracle's view of the
// data: it shares no state with the stream the program was fed.
func (d Dataset) Series(node, metric int) []float64 {
	w := newWalk(d.Seed, node, metric)
	out := make([]float64, d.Steps())
	for k := range out {
		out[k] = w.next()
	}
	return out
}

// Stream yields the dataset one timestamp at a time, every series'
// sample for that minute in one batch — the shape a collection cycle
// produces.
type Stream struct {
	d       Dataset
	nodeIDs []string
	metrics []builder.Metric
	walks   []walk // node-major, metric-minor
	step    int
	// Corrupt, when non-nil, may alter a batch before it is handed out
	// — the test hook that proves the oracle notices a wrong point.
	Corrupt func(step int, batch []tsdb.Point)
}

// NewStream prepares the generator. nodeIDs are the NodeId tag values,
// in node-index order; len(nodeIDs) must equal d.Nodes.
func (d Dataset) NewStream(nodeIDs []string) *Stream {
	s := &Stream{d: d, nodeIDs: nodeIDs, metrics: builder.DefaultMetrics()}
	s.walks = make([]walk, 0, len(nodeIDs)*len(s.metrics))
	for n := range nodeIDs {
		for m := range s.metrics {
			s.walks = append(s.walks, newWalk(d.Seed, n, m))
		}
	}
	return s
}

// Next returns the next minute's batch and its timestamp, or nil when
// the history is exhausted.
func (s *Stream) Next() ([]tsdb.Point, int64) {
	if s.step >= s.d.Steps() {
		return nil, 0
	}
	t := s.d.From() + int64(s.step)*Cadence
	batch := make([]tsdb.Point, 0, len(s.walks))
	i := 0
	for _, id := range s.nodeIDs {
		for _, m := range s.metrics {
			batch = append(batch, tsdb.Point{
				Measurement: m.Measurement,
				Tags:        tsdb.Tags{{Key: "NodeId", Value: id}, {Key: "Label", Value: m.Label}},
				Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(s.walks[i].next())},
				Time:        t,
			})
			i++
		}
	}
	if s.Corrupt != nil {
		s.Corrupt(s.step, batch)
	}
	s.step++
	return batch, t
}
