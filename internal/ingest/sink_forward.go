package ingest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// ForwardSink relays routed batches to a peer monsterd's push receiver
// as an HTTP POST of InfluxDB line protocol — the wire format
// PushReceiver parses, so monsterd instances compose into forwarding
// chains and federated trees. Timestamps travel in the payload, so the
// peer stores the points at their original times.
type ForwardSink struct {
	url    string
	client *http.Client
	clk    clock.Clock

	mu sync.Mutex
	st SinkStats

	bytesSent int64
	requests  int64
}

// NewForwardSink builds a forward sink POSTing to url (the peer's push
// endpoint, e.g. http://peer:8080/v1/ingest/write).
func NewForwardSink(url string) *ForwardSink {
	return &ForwardSink{url: url, client: &http.Client{Timeout: 30 * time.Second}, clk: clock.NewReal()}
}

// Name implements Sink.
func (s *ForwardSink) Name() string { return "forward" }

// Write implements Sink: one POST per batch. A transport failure or a
// non-2xx response counts as a forward error and surfaces; points are
// only counted written when the peer acknowledged them.
func (s *ForwardSink) Write(points []tsdb.Point) error {
	if len(points) == 0 {
		return nil
	}
	body := tsdb.FormatLineProtocol(points)
	start := s.clk.Now()
	err := s.post(body)
	elapsed := s.clk.Now().Sub(start)

	s.mu.Lock()
	s.requests++
	s.st.WriteTime += elapsed
	s.st.LastWrite = elapsed
	if err != nil {
		s.st.WriteErrors++
		s.st.ForwardErrors++
	} else {
		s.st.Batches++
		s.st.PointsWritten += int64(len(points))
		s.bytesSent += int64(len(body))
	}
	s.mu.Unlock()
	return err
}

func (s *ForwardSink) post(body []byte) error {
	resp, err := s.client.Post(s.url, "text/plain; charset=utf-8", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("ingest: forward to %s: %w", s.url, err)
	}
	defer resp.Body.Close()
	// Drain so the connection is reusable; the body carries no data we
	// need on success.
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)); err != nil {
		return fmt.Errorf("ingest: forward to %s: reading response: %w", s.url, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("ingest: forward to %s: peer status %d", s.url, resp.StatusCode)
	}
	return nil
}

// Stats implements Sink.
func (s *ForwardSink) Stats() SinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// ExtraStats reports transport-level counters.
func (s *ForwardSink) ExtraStats() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]int64{"requests": s.requests, "bytes_sent": s.bytesSent}
}
