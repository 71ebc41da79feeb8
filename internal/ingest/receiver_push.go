package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"monster/internal/clock"
	"monster/internal/tsdb"
)

// DefaultMaxPushBody bounds a push request body (4 MiB) so a
// misbehaving client cannot balloon the receiver's allocations.
const DefaultMaxPushBody = 4 << 20

// PushReceiver accepts InfluxDB line protocol over HTTP POST — the
// push half of the pipeline, and the wire format ForwardSink speaks,
// so any monsterd can receive from clients, collectd-style shippers,
// or an upstream monsterd's forward sink. Mount it wherever the
// deployment listens (monsterd uses /v1/ingest/write).
//
// Responses: 204 on success, 400 with {"error": ...} on a parse
// failure (the offending line number included) or any other body-read
// failure (client disconnect, truncated chunked encoding), 405 on a
// non-POST, 413 only when the body exceeds DefaultMaxPushBody, 503
// before the receiver is bound to a pipeline, and 500 when no sink
// stored the batch. The 204 is written after every sink has answered.
type PushReceiver struct {
	maxBody int64       // request body cap; tests shrink it
	clk     clock.Clock // stamps lines that carry no timestamp

	mu   sync.RWMutex
	emit EmitFunc

	requests    atomic.Int64
	parseErrors atomic.Int64
	bytesRead   atomic.Int64
	emitErrors  atomic.Int64
}

// NewPushReceiver builds an HTTP push receiver. Register it with
// Pipeline.AddReceiver before serving traffic.
func NewPushReceiver() *PushReceiver {
	return &PushReceiver{maxBody: DefaultMaxPushBody, clk: clock.NewReal()}
}

// Name implements Receiver.
func (r *PushReceiver) Name() string { return "push" }

// Bind implements Receiver.
func (r *PushReceiver) Bind(emit EmitFunc) {
	r.mu.Lock()
	r.emit = emit
	r.mu.Unlock()
}

// Run implements Receiver. The push receiver is driven by its HTTP
// clients, not by the pipeline, so Run has nothing to do.
func (r *PushReceiver) Run(ctx context.Context) error { return nil }

// ServeHTTP implements http.Handler.
func (r *PushReceiver) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.requests.Add(1)
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "want POST, got %s", req.Method)
		return
	}
	r.mu.RLock()
	emit := r.emit
	r.mu.RUnlock()
	if emit == nil {
		httpError(w, http.StatusServiceUnavailable, "push receiver not attached to a pipeline")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.maxBody))
	if err != nil {
		// 413 is reserved for the limiter itself; any other read error
		// (client disconnect, truncated chunked encoding) is the
		// client's malformed request, not an oversized one.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		} else {
			httpError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return
	}
	r.bytesRead.Add(int64(len(body)))
	points, err := tsdb.ParseLineProtocol(body, r.clk.Now().Unix())
	if err != nil {
		r.parseErrors.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := emit(points); err != nil {
		// No sink stored the batch; a 204 would acknowledge lost data.
		r.emitErrors.Add(1)
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ExtraStats surfaces transport counters in the pipeline snapshot.
func (r *PushReceiver) ExtraStats() map[string]int64 {
	return map[string]int64{
		"requests":     r.requests.Load(),
		"parse_errors": r.parseErrors.Load(),
		"bytes_read":   r.bytesRead.Load(),
		"emit_errors":  r.emitErrors.Load(),
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}); err != nil {
		// The client hung up before reading its own error; nothing
		// useful left to do with the failure.
		_ = err
	}
}
