package collector

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// bodyServer answers every request with the body last stored in body.
func bodyServer(t *testing.T, body *atomic.Pointer[[]byte]) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(*body.Load())
	}))
	t.Cleanup(srv.Close)
	return srv
}

// padded returns doc followed by JSON white space up to n bytes.
func padded(doc string, n int) *[]byte {
	b := append([]byte(doc), bytes.Repeat([]byte{' '}, n-len(doc))...)
	return &b
}

// TestSchedulerSourceBodyLimit: a UGE response of exactly
// maxSchedulerBody bytes is read; one byte more fails the poll whole,
// returns nothing and is not counted as read.
func TestSchedulerSourceBodyLimit(t *testing.T) {
	var body atomic.Pointer[[]byte]
	src := NewHTTPSchedulerSource(bodyServer(t, &body).URL, nil)
	body.Store(padded(`[{"hostname":"n1"}]`, maxSchedulerBody))
	hosts, err := src.Hosts(context.Background())
	if err != nil || len(hosts) != 1 || hosts[0].Hostname != "n1" {
		t.Fatalf("body at the limit: hosts %+v, err %v", hosts, err)
	}
	if got := src.BytesRead(); got != maxSchedulerBody {
		t.Fatalf("bytes read %d, want %d", got, maxSchedulerBody)
	}
	body.Store(padded(`[{"hostname":"n2"}]`, maxSchedulerBody+1))
	hosts, err = src.Hosts(context.Background())
	if err == nil || !strings.Contains(err.Error(), "body over") || hosts != nil {
		t.Fatalf("body over the limit: hosts %+v, err %v", hosts, err)
	}
	if got := src.BytesRead(); got != maxSchedulerBody {
		t.Fatalf("a refused body was counted: bytes read %d", got)
	}
}

// TestSlurmSourceBodyLimit: the Slurm source keeps the last job table
// it fetched; a body one byte over maxSchedulerBody is refused and
// leaves that table as it was.
func TestSlurmSourceBodyLimit(t *testing.T) {
	var body atomic.Pointer[[]byte]
	src := NewSlurmSchedulerSource(bodyServer(t, &body).URL, nil)
	body.Store(padded(`{"jobs":[{"job_id":7}]}`, maxSchedulerBody))
	if jobs, err := src.fetchJobs(context.Background()); err != nil || len(jobs) != 1 {
		t.Fatalf("body at the limit: jobs %+v, err %v", jobs, err)
	}
	at := src.jobsAt
	body.Store(padded(`{"jobs":[{"job_id":8},{"job_id":9}]}`, maxSchedulerBody+1))
	jobs, err := src.fetchJobs(context.Background())
	if err == nil || !strings.Contains(err.Error(), "body over") || jobs != nil {
		t.Fatalf("body over the limit: jobs %+v, err %v", jobs, err)
	}
	if len(src.lastJobs) != 1 || src.lastJobs[0].JobID != 7 || src.jobsAt != at {
		t.Fatalf("a refused body replaced the stored job table: %+v", src.lastJobs)
	}
}
