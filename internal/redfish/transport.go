package redfish

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"monster/internal/clock"
	"monster/internal/simnode"
)

// Fleet hosts one simulated BMC per node and routes HTTP requests to
// them by host address without opening operating-system sockets: it
// implements http.RoundTripper, so a standard *http.Client pointed at
// "https://10.101.1.31/redfish/v1/..." is served in-process by node
// 1-31's BMC. This is how a 467-BMC management network fits in one
// test process.
type Fleet struct {
	mu   sync.RWMutex
	bmcs map[string]*BMC // keyed by node management address
}

// NewFleet creates BMCs for every node in the fleet. Per-BMC seeds are
// derived from the node seed so latency jitter is deterministic.
func NewFleet(nodes *simnode.Fleet, opts BMCOptions) *Fleet {
	f := &Fleet{bmcs: make(map[string]*BMC, nodes.Len())}
	for i := 0; i < nodes.Len(); i++ {
		n := nodes.Node(i)
		o := opts
		o.Seed = opts.Seed + int64(i)*104729
		f.bmcs[n.Addr()] = NewBMC(n, o)
	}
	return f
}

// BMC returns the BMC at the given management address.
func (f *Fleet) BMC(addr string) (*BMC, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	b, ok := f.bmcs[addr]
	return b, ok
}

// Len reports the number of BMCs.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.bmcs)
}

// RoundTrip implements http.RoundTripper by dispatching to the BMC
// selected by the request host. Unknown hosts and unreachable BMCs
// produce a transport-level error, exactly like a refused connection.
func (f *Fleet) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Hostname()
	f.mu.RLock()
	bmc, ok := f.bmcs[host]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("redfish: no route to host %s", host)
	}
	if bmc.Unreachable() {
		return nil, fmt.Errorf("redfish: connect to %s: connection refused", host)
	}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		bmc.ServeHTTP(rec, req)
		close(done)
	}()
	ctx := req.Context()
	select {
	case <-done:
	case <-ctx.Done():
		// The BMC keeps grinding in the background (like a real slow
		// controller) but the client sees its timeout.
		return nil, ctx.Err()
	}
	return rec.Result(), nil
}

// Client returns an *http.Client whose transport is this fleet.
func (f *Fleet) Client() *http.Client {
	return &http.Client{Transport: f}
}

// URL builds the full URL for a resource path on a node, in the
// "https://10.101.1.1/redfish/v1/..." form the paper quotes.
func URL(addr, path string) string {
	return "https://" + addr + path
}

// NewTestFleet is a convenience for tests: n nodes with zero-latency
// BMCs on the given clock.
func NewTestFleet(n int, clk clock.Clock) (*simnode.Fleet, *Fleet) {
	nodes := simnode.NewFleet(n, 1)
	bmcs := NewFleet(nodes, BMCOptions{Clock: clk, MaxConcurrent: 8})
	return nodes, bmcs
}
