package builder

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"monster/internal/clock"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	db := seedDB(t, 3, 20)
	b := New(db, Options{Concurrent: true})
	req := stdRequest(20)
	req.IncludeJobs = true
	resp, _, err := b.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, back) {
		t.Fatal("JSON round trip changed the response")
	}
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestCompressRoundTripAllLevels(t *testing.T) {
	data := []byte(strings.Repeat("Reading: 273.15, Node: 10.101.1.42; ", 2000))
	for level := 0; level <= 9; level++ {
		comp, err := Compress(data, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if len(comp) >= len(data) {
			t.Fatalf("level %d did not shrink: %d -> %d", level, len(data), len(comp))
		}
		back, err := Decompress(comp)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("level %d corrupted the data", level)
		}
	}
}

func TestCompressLevelValidation(t *testing.T) {
	for _, level := range []int{-1, 10, 100} {
		if _, err := Compress([]byte("x"), level); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
}

func TestCompressReusesPooledWriters(t *testing.T) {
	// Two sequential compressions at the same level must both round
	// trip — a stale pooled writer would corrupt the second stream.
	data := []byte(strings.Repeat("abcdef", 500))
	for i := 0; i < 3; i++ {
		comp, err := Compress(data, 6)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(comp)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte("definitely not zlib")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDecompressLimit: a zlib stream that inflates to exactly the limit
// is read whole; one that inflates a byte past it, a bomb of 1 MiB from
// about a kilobyte, is refused and returns nothing.
func TestDecompressLimit(t *testing.T) {
	const limit = 1 << 20
	for _, n := range []int{limit, limit + 1} {
		var buf bytes.Buffer
		w := zlib.NewWriter(&buf)
		if _, err := w.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := decompress(buf.Bytes(), limit)
		if n == limit && (err != nil || len(out) != limit) {
			t.Fatalf("%d B from %d B at the limit: got %d B, err %v", n, buf.Len(), len(out), err)
		}
		if n > limit && (err == nil || !strings.Contains(err.Error(), "body over") || out != nil) {
			t.Fatalf("%d B from %d B past the limit: got %d B, err %v", n, buf.Len(), len(out), err)
		}
	}
}

func TestCompressionRatioOnRealResponse(t *testing.T) {
	db := seedDB(t, 8, 120)
	b := New(db, Options{Concurrent: true})
	req := stdRequest(120)
	req.Interval = time.Minute // 1-minute buckets: lots of repetitive JSON
	resp, _, err := b.Fetch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compress(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := CompressionRatio(raw, comp)
	if ratio <= 0 || ratio > 0.35 {
		t.Fatalf("ratio = %.3f (raw %d, compressed %d) — paper reports ~0.05 on monitoring JSON", ratio, len(raw), len(comp))
	}
	if CompressionRatio(nil, comp) != 0 {
		t.Fatal("empty raw ratio not zero")
	}
}

// seamBody is n bytes of response-like text that deflate can shrink
// but that does not repeat at any chunk-sized period.
func seamBody(n int) []byte {
	var b []byte
	for i := 0; len(b) < n; i++ {
		b = fmt.Appendf(b, `{"node_id":"10.101.%d.%d","values":[%d,%d.%d]},`, i%7, i%60, 40+i%97, i*31%1000, i%8)
	}
	return b[:n]
}

// TestCompressChunkSeams runs bodies on either side of every piece
// boundary at every level through Compress, on one core and on two:
// each is one zlib stream whose Adler-32 trailer compress/zlib checks.
// A body that fits one piece, and on one core every body, is byte for
// byte what a zlib.Writer makes of it.
func TestCompressChunkSeams(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, deflateChunk - 1, deflateChunk, deflateChunk + 1, 5*deflateChunk + 17} {
			data := seamBody(n)
			for level := 1; level <= 9; level++ {
				comp, err := Compress(data, level)
				if err != nil {
					t.Fatalf("%d bytes, level %d, GOMAXPROCS %d: %v", n, level, procs, err)
				}
				r, err := zlib.NewReader(bytes.NewReader(comp))
				if err != nil {
					t.Fatalf("%d bytes, level %d, GOMAXPROCS %d: %v", n, level, procs, err)
				}
				back, err := io.ReadAll(r)
				if err != nil || !bytes.Equal(back, data) {
					t.Fatalf("%d bytes, level %d, GOMAXPROCS %d: inflated %d bytes (%v)", n, level, procs, len(back), err)
				}
				if n > deflateChunk && procs > 1 {
					continue
				}
				var want bytes.Buffer
				zw, err := zlib.NewWriterLevel(&want, level)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := zw.Write(data); err != nil {
					t.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(comp, want.Bytes()) {
					t.Fatalf("%d bytes, level %d, GOMAXPROCS %d: not zlib.Writer's stream", n, level, procs)
				}
			}
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to n: a
// goroutine that has signalled its WaitGroup may not have exited yet.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the call, %d before it", runtime.NumGoroutine(), n)
		}
	}
}

// TestWriteBodyErrorLeavesNothing: a NaN in node 39 of 40 fails the
// encode after a piece has been handed to a compressor.
// writeBody returns the error with nothing written to dst, and none
// of the goroutines it started outlives it.
func TestWriteBodyErrorLeavesNothing(t *testing.T) {
	bad := gridResponse(40, 72)
	bad.Nodes[39].Metrics["Power/NodePower"].Values[70] = math.NaN()
	if before, err := Encode(gridResponse(39, 72)); err != nil || len(before) <= deflateChunk {
		t.Fatalf("the NaN must come after a full piece: %d bytes before it (%v)", len(before), err)
	}
	for _, deflated := range []bool{false, true} {
		var dst bytes.Buffer
		before := runtime.NumGoroutine()
		err := writeBody(&dst, bad, deflated, 0, clock.NewReal(), new(Stats))
		if err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("deflated=%t: err = %v", deflated, err)
		}
		if dst.Len() != 0 {
			t.Fatalf("deflated=%t: dst holds %d bytes after the error", deflated, dst.Len())
		}
		waitGoroutines(t, before)
	}
}

// TestWriteBodyConcurrent: writers of different sizes and levels share
// the encoder, deflater, piece and writer pools, and every body still
// inflates to its own Encode bytes.
func TestWriteBodyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := gridResponse(1+g*9, 72) // one piece up to four
			want, err := Encode(resp)
			if err != nil {
				errs <- err
				return
			}
			clk := clock.NewReal()
			for i := 0; i < 5; i++ {
				var dst bytes.Buffer
				if err := writeBody(&dst, resp, true, (g+i)%10, clk, new(Stats)); err != nil {
					errs <- err
					return
				}
				got, err := Decompress(dst.Bytes())
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("writer %d, round %d: body does not inflate to its Encode bytes (%v)", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDeflateWritersOnDemand: on a host of several cores a stream
// takes a writer only for a piece it deflates. One-piece streams one
// after another all reuse one writer, and a stream of six pieces at
// GOMAXPROCS 2 builds no more than two.
func TestDeflateWritersOnDemand(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	pool := &flateWriters[defaultLevel]
	built := 0
	pool.New = func() any {
		built++
		fw, _ := flate.NewWriter(nil, defaultLevel)
		return fw
	}
	defer func() { pool.New = nil }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, streams, size, most int }{{4, 20, 1000, 1}, {2, 1, 5*deflateChunk + 17, 2}} {
		runtime.GOMAXPROCS(tc.procs)
		runtime.GC() // twice: the first moves pooled writers to the victim cache,
		runtime.GC() // the second drops them
		built = 0
		for range tc.streams {
			if _, err := Compress(seamBody(tc.size), 0); err != nil {
				t.Fatal(err)
			}
		}
		if built > tc.most {
			t.Errorf("%d streams of %d bytes at GOMAXPROCS %d built %d writers, want at most %d",
				tc.streams, tc.size, tc.procs, built, tc.most)
		}
	}
}

// poolDrops reports whether sync.Pool drops what it is given at
// random, as it does under the race detector.
func poolDrops() bool {
	var p sync.Pool
	for range 100 {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// BenchmarkWriteBody is the fused encode + deflate of a dashboard
// response (64 nodes × 10 metrics × 72 buckets) at the default level;
// run it at -cpu 1,2 to see what the parallel pieces buy.
func BenchmarkWriteBody(b *testing.B) {
	resp := gridResponse(64, 72)
	clk := clock.NewReal()
	var dst bytes.Buffer
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		if err := writeBody(&dst, resp, true, 0, clk, &st); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(st.BytesRaw)
}
