package ingest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"monster/internal/tsdb"
)

func validPoint(t int64) tsdb.Point {
	return tsdb.Point{
		Measurement: "Power",
		Tags:        tsdb.Tags{{Key: "NodeId", Value: "10.101.1.1"}},
		Fields:      map[string]tsdb.Value{"Reading": tsdb.Float(200)},
		Time:        t,
	}
}

// TestTSDBSinkRecordsPartialProgress pins the batched-write loop's
// fault-handling contract: when a mid-loop batch fails, the batches
// that DID land (and the time spent) must still be recorded before the
// error surfaces.
func TestTSDBSinkRecordsPartialProgress(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	s := NewTSDBSink(db)
	s.batch = 1
	valid := validPoint(100)
	invalid := tsdb.Point{Measurement: "", Time: 100} // fails Validate

	err := s.Write([]tsdb.Point{valid, invalid})
	if err == nil {
		t.Fatal("invalid point accepted")
	}
	st := s.Stats()
	if st.Batches != 1 {
		t.Fatalf("Batches = %d after partial failure, want 1 (the batch that landed)", st.Batches)
	}
	if st.PointsWritten != 1 {
		t.Fatalf("PointsWritten = %d, want 1", st.PointsWritten)
	}
	if st.WriteTime <= 0 {
		t.Fatalf("WriteTime = %v after partial failure, want > 0", st.WriteTime)
	}
	if st.WriteErrors != 1 {
		t.Fatalf("WriteErrors = %d, want 1", st.WriteErrors)
	}
	if got := db.Disk().Points; got != 1 {
		t.Fatalf("db has %d points, want the 1 that was acknowledged", got)
	}

	// A fully successful write keeps counting from there.
	if err := s.Write([]tsdb.Point{valid}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 2 || st.PointsWritten != 2 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

func TestTSDBSinkBatchSizes(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	s := NewTSDBSink(db)
	s.batch = 10
	pts := make([]tsdb.Point, 25)
	for i := range pts {
		pts[i] = validPoint(int64(i + 1))
	}
	if err := s.Write(pts); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 3 {
		t.Fatalf("Batches = %d, want 3 for 25 points at size 10", st.Batches)
	}
}

func TestForwardSinkDelivery(t *testing.T) {
	var got []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got = body
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	s := NewForwardSink(srv.URL)
	pts := []tsdb.Point{validPoint(42)}
	if err := s.Write(pts); err != nil {
		t.Fatal(err)
	}
	parsed, err := tsdb.ParseLineProtocol(got, 0)
	if err != nil {
		t.Fatalf("peer received unparseable payload: %v", err)
	}
	if len(parsed) != 1 || parsed[0].Measurement != "Power" || parsed[0].Time != 42 {
		t.Fatalf("peer parsed %+v", parsed)
	}
	st := s.Stats()
	if st.PointsWritten != 1 || st.Batches != 1 || st.ForwardErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestForwardSinkCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	s := NewForwardSink(srv.URL)
	if err := s.Write([]tsdb.Point{validPoint(1)}); err == nil {
		t.Fatal("non-2xx peer response not surfaced")
	}
	st := s.Stats()
	if st.ForwardErrors != 1 || st.WriteErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PointsWritten != 0 {
		t.Fatalf("unacknowledged points counted written: %+v", st)
	}

	// Transport failure (dead peer) counts the same way.
	srv.Close()
	if err := s.Write([]tsdb.Point{validPoint(2)}); err == nil {
		t.Fatal("transport failure not surfaced")
	}
	if st := s.Stats(); st.ForwardErrors != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDebugSinkRendersLineProtocol(t *testing.T) {
	var buf bytes.Buffer
	s := NewDebugSink(&buf)
	if err := s.Write([]tsdb.Point{validPoint(7)}); err != nil {
		t.Fatal(err)
	}
	parsed, err := tsdb.ParseLineProtocol(buf.Bytes(), 0)
	if err != nil || len(parsed) != 1 {
		t.Fatalf("debug output %q: %v", buf.String(), err)
	}
	if st := s.Stats(); st.PointsWritten != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
