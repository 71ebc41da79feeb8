package tsdb

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzLineProtocol feeds arbitrary bytes through the push wire-format
// parser (the ingest pipeline's HTTP push receiver and forward sink
// both speak it). Invariants: parsing never panics; an accepted input
// re-renders through FormatLineProtocol into a form that parses again
// with the same point count and is byte-stable on the second round
// trip and gives every point back its series key; no parsed float
// field is NaN or ±Inf; and the point count never exceeds the input's
// line count.
func FuzzLineProtocol(f *testing.F) {
	seeds := []string{
		"Power,NodeId=10.101.1.1,Label=NodePower Reading=273.8 1583792296\n",
		"m f=1i 10\nm f=2i 20\n",
		"m,tag=with\\ space f=\"quoted \\\" string\" 5\n",
		"m f=true\n",
		"# comment\n\nm f=0\n",
		"esc\\,aped,k\\=ey=v\\,alue f=1 1\n",
		"a,k=v\\,x\\=y f=1\na,k=v,x=y f=2\na\\,k=v f=4\n", // three series, not one
		"m f=1e300,g=-2.5 99\n",
		"\\\" 0=\"\"", // a quote in a name must be re-escaped on render
		"m,k\\\"=v\\\" f\\\"=1",
		"\\# \\0=0",                      // a measurement that starts with '#' is not a comment
		"\\\v 0=0",                       // nor is leading white space trimmed away
		"m s=\"job\nname\" 1\nm f=1 2\n", // a newline inside a string value ends no line
		// Must-fail shapes.
		"not line protocol",
		"m",
		"m f= 1",
		",missing f=1 1",
		"m f=1 notatime",
		"m f=NaN 1\n",
		"m f=1,g=+Inf\n",
		"m f=-inf 7\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ParseLineProtocol(data, 42)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if lines := strings.Count(string(data), "\n") + 1; len(pts) > lines {
			t.Fatalf("%d points out of %d input lines", len(pts), lines)
		}
		for _, p := range pts {
			for name, v := range p.Fields {
				if v.Kind == KindFloat && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
					t.Fatalf("field %s parsed as non-finite %v from %q", name, v.F, data)
				}
			}
		}
		b1 := FormatLineProtocol(pts)
		pts2, err := ParseLineProtocol(b1, 42)
		if err != nil {
			t.Fatalf("re-parse of rendered output failed: %v\ninput %q\nrendered %q", err, data, b1)
		}
		if len(pts2) != len(pts) {
			t.Fatalf("round trip changed point count: %d -> %d", len(pts), len(pts2))
		}
		for i := range pts {
			if got, want := pointKey(&pts2[i]), pointKey(&pts[i]); got != want {
				t.Fatalf("round trip changed point %d's series key: %q -> %q\nrendered %q", i, want, got, b1)
			}
		}
		b2 := FormatLineProtocol(pts2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("second round trip not byte-stable:\n%q\n%q", b1, b2)
		}
	})
}
