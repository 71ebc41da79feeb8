package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// ScrapeOptions configures a ScrapeReceiver.
type ScrapeOptions struct {
	// Targets are the exposition endpoints to poll (e.g.
	// http://node:9100/metrics).
	Targets []string
	// Interval is the scrape cadence. Zero means 60 s.
	Interval time.Duration
}

// ScrapeReceiver polls Prometheus-style text exposition endpoints on
// an interval and turns each sample into a point: the metric name
// becomes the measurement, labels become tags, and the sample value
// lands in a "value" field. Exposition timestamps (milliseconds) are
// honoured; samples without one are stamped at scrape time.
type ScrapeReceiver struct {
	targets  []string
	interval time.Duration
	client   *http.Client
	clk      clock.Clock // drives the loop and stamps untimed samples; tests substitute a simulated one

	mu   sync.RWMutex
	emit EmitFunc

	scrapes      atomic.Int64
	scrapeErrors atomic.Int64
	samples      atomic.Int64
	skipped      atomic.Int64 // samples with no tsdb form (ParsePrometheus)
}

// NewScrapeReceiver builds a scrape receiver. Pipeline.Run drives its
// scrape loop.
func NewScrapeReceiver(opts ScrapeOptions) *ScrapeReceiver {
	if opts.Interval == 0 {
		opts.Interval = 60 * time.Second
	}
	return &ScrapeReceiver{
		targets: opts.Targets, interval: opts.Interval,
		client: &http.Client{Timeout: 10 * time.Second}, clk: clock.NewReal(),
	}
}

// Name implements Receiver.
func (r *ScrapeReceiver) Name() string { return "scrape" }

// Bind implements Receiver.
func (r *ScrapeReceiver) Bind(emit EmitFunc) {
	r.mu.Lock()
	r.emit = emit
	r.mu.Unlock()
}

// Run implements Receiver: scrape every target each interval until
// ctx is done.
func (r *ScrapeReceiver) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.clk.After(r.interval):
		}
		r.ScrapeOnce(ctx)
	}
}

// ScrapeOnce polls every target once — the unit the Run loop repeats,
// exposed for tests and manual triggering.
func (r *ScrapeReceiver) ScrapeOnce(ctx context.Context) {
	r.mu.RLock()
	emit := r.emit
	r.mu.RUnlock()
	if emit == nil {
		return
	}
	for _, target := range r.targets {
		points, err := r.scrapeTarget(ctx, target)
		r.scrapes.Add(1)
		if err != nil {
			r.scrapeErrors.Add(1)
			continue
		}
		r.samples.Add(int64(len(points)))
		// A failed write is already counted by the sink; the scrape
		// succeeded, so it is not a scrape error.
		_ = emit(points)
	}
}

func (r *ScrapeReceiver) scrapeTarget(ctx context.Context, target string) ([]tsdb.Point, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// One byte past the limit tells a body that fits from one that was
	// cut: parsing a cut body could store its last line as a wrong sample.
	body, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxPushBody+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ingest: scrape %s: status %d", target, resp.StatusCode)
	}
	if len(body) > DefaultMaxPushBody {
		return nil, fmt.Errorf("ingest: scrape %s: body over %d bytes", target, DefaultMaxPushBody)
	}
	points, skipped, err := ParsePrometheus(body, r.clk.Now().Unix())
	r.skipped.Add(int64(skipped))
	return points, err
}

// ExtraStats surfaces scrape counters in the pipeline snapshot.
func (r *ScrapeReceiver) ExtraStats() map[string]int64 {
	return map[string]int64{
		"scrapes":       r.scrapes.Load(),
		"scrape_errors": r.scrapeErrors.Load(),
		"samples":       r.samples.Load(),
		// Exposition allows NaN, ±Inf and line breaks in names and
		// label values; none has a form in storage, so they stop here.
		"samples_skipped": r.skipped.Load(),
	}
}

// ParsePrometheus parses Prometheus text exposition format into
// points. Comment (#) and blank lines are skipped; histograms and
// summaries appear as their component series (_bucket/_sum/_count),
// which is exactly how Prometheus itself exposes them. defaultTime
// (Unix seconds) stamps samples without an exposition timestamp. A
// sample that is legal exposition but has no stored form is skipped
// and counted in skipped, so it cannot fail the rest of the scrape: a
// value that is NaN or ±Inf (the quantile of an empty summary, e.g.),
// which a Metrics Builder response cannot carry, or a name or label
// value holding a line break (a \n escape), which tsdb.Point.Validate
// refuses.
func ParsePrometheus(data []byte, defaultTime int64) (points []tsdb.Point, skipped int, _ error) {
	for lineNo := 1; len(data) > 0; lineNo++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte("\n"))
		if line = bytes.TrimSpace(line); len(line) == 0 || line[0] == '#' {
			continue
		}
		p, err := parsePromLine(string(line), defaultTime)
		if errors.Is(err, errNoStoredForm) {
			skipped++
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("ingest: exposition line %d: %w", lineNo, err)
		}
		points = append(points, p)
	}
	return points, skipped, nil
}

// errNoStoredForm is parsePromLine's verdict on an otherwise
// well-formed sample whose value is NaN or ±Inf, or whose name or a
// label holds a line break.
var errNoStoredForm = errors.New("sample has no stored form")

func parsePromLine(line string, defaultTime int64) (tsdb.Point, error) {
	var p tsdb.Point
	name := line
	rest := ""
	if idx := strings.IndexAny(line, "{ \t"); idx >= 0 {
		name, rest = line[:idx], line[idx:]
	}
	if name == "" {
		return p, fmt.Errorf("empty metric name")
	}
	p.Measurement = name
	rest = strings.TrimLeft(rest, " \t")
	if strings.HasPrefix(rest, "{") {
		end, err := parsePromLabels(rest, &p)
		if err != nil {
			return p, err
		}
		rest = strings.TrimLeft(rest[end:], " \t")
	}
	valuePart := rest
	tsPart := ""
	if idx := strings.IndexAny(rest, " \t"); idx >= 0 {
		valuePart, tsPart = rest[:idx], strings.TrimSpace(rest[idx:])
	}
	if valuePart == "" {
		return p, fmt.Errorf("missing sample value")
	}
	v, err := strconv.ParseFloat(valuePart, 64)
	if err != nil {
		return p, fmt.Errorf("bad sample value %q", valuePart)
	}
	p.Fields = map[string]tsdb.Value{"value": tsdb.Float(v)}
	p.Time = defaultTime
	if tsPart != "" {
		ms, err := strconv.ParseInt(tsPart, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad timestamp %q", tsPart)
		}
		p.Time = ms / 1000
	}
	if hasLineBreak(&p) {
		return p, errNoStoredForm
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return p, errNoStoredForm
	}
	return p, nil
}

// parsePromLabels parses a {k="v",...} label block starting at s[0]
// == '{', filling p.Tags, and returns the index just past the
// closing brace.
func parsePromLabels(s string, p *tsdb.Point) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		key := strings.TrimSpace(s[start:i])
		if key == "" {
			return 0, fmt.Errorf("empty label name")
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %q: want quoted value", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("label %q: unterminated value", key)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case 't':
					val.WriteByte('\t')
				default:
					val.WriteByte(s[i])
				}
				i++
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		p.Tags = append(p.Tags, tsdb.Tag{Key: key, Value: val.String()})
	}
}

// hasLineBreak reports whether p's measurement or a tag holds a CR or LF.
func hasLineBreak(p *tsdb.Point) bool {
	if strings.ContainsAny(p.Measurement, "\r\n") {
		return true
	}
	for _, t := range p.Tags {
		if strings.ContainsAny(t.Key, "\r\n") || strings.ContainsAny(t.Value, "\r\n") {
			return true
		}
	}
	return false
}
