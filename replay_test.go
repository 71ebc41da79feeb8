package monster_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"monster"
)

// seedDigest is the SHA-256 of everything TestSeedReplaysBitForBit
// reads back from its run. A change that moves stored values on purpose
// (a router rule, the schema, the node model) regenerates it and says
// why; a change of representation alone must leave it as it is.
const seedDigest = "7db7b55c8c11d89808e160783655bf8adb438032d558dc6b013359ef18baf666"

// TestSeedReplaysBitForBit runs the facade for 8 nodes × 18 h, long
// enough that every polled column seals a block, and hashes every
// stored series, read back through raw queries, with every paper
// probe's builder response body, identity-encoded and deflated. One
// seed names one history: the hash is the checked-in digest on every
// run. The digest is amd64's; an architecture that fuses a multiply and
// an add into one rounding stores other last bits.
func TestSeedReplaysBitForBit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	sys := monster.New(monster.Config{Nodes: 8, Seed: 1})
	ctx := context.Background()
	if err := sys.AdvanceCollecting(ctx, 18*time.Hour); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range sys.DB.Measurements() {
		var fields []string
		for _, f := range slices.Sorted(maps.Keys(sys.DB.FieldKinds(name))) {
			fields = append(fields, strconv.Quote(f))
		}
		res, err := sys.DB.Query(fmt.Sprintf(`SELECT %s FROM %q GROUP BY *`, strings.Join(fields, ", "), name))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Series {
			fmt.Fprintf(h, "%s %v %q\n", s.Name, s.Tags, s.Columns)
			for _, r := range s.Rows() {
				fmt.Fprintf(h, "%d", r.Time)
				for i, v := range r.Values {
					fmt.Fprintf(h, " %t %d %x %d %q %t", r.Present[i], v.Kind, math.Float64bits(v.F), v.I, v.S, v.B)
				}
				fmt.Fprintln(h)
			}
		}
	}

	srv := httptest.NewServer(sys.BuilderAPI)
	defer srv.Close()
	for _, iv := range []time.Duration{5 * time.Minute, 10 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour} {
		u := fmt.Sprintf("%s/v1/metrics?start=%d&end=%d&interval=%s&agg=max&jobs=true",
			srv.URL, sys.Config.Start.Unix(), sys.Now().Unix(), iv)
		for _, enc := range []string{"identity", "deflate"} {
			hashBody(t, h, u, enc)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedDigest {
		t.Fatalf("seed 1 stored or answered a different history: digest %s, want %s", got, seedDigest)
	}
}

func hashBody(t *testing.T, h hash.Hash, u, encoding string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", encoding)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", u, resp.StatusCode)
	}
	if _, err := io.Copy(h, resp.Body); err != nil {
		t.Fatal(err)
	}
}
