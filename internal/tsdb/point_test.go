package tsdb

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
		str  string
	}{
		{Float(273.8), KindFloat, "273.8"},
		{Int(42), KindInt, "42"},
		{Str("Warning"), KindString, "Warning"},
		{Bool(true), KindBool, "true"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("kind = %v, want %v", c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestValueKindString(t *testing.T) {
	if KindFloat.String() != "float" || KindString.String() != "string" {
		t.Fatal("ValueKind.String mismatch")
	}
	if ValueKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := Float(1.5).AsFloat(); !ok || f != 1.5 {
		t.Fatalf("Float.AsFloat = %v,%v", f, ok)
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Fatalf("Int.AsFloat = %v,%v", f, ok)
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Fatal("Str.AsFloat should not convert")
	}
	if _, ok := Bool(true).AsFloat(); ok {
		t.Fatal("Bool.AsFloat should not convert")
	}
}

func TestValueEncodedSize(t *testing.T) {
	if got := Float(1).EncodedSize(); got != 8 {
		t.Errorf("float size %d, want 8", got)
	}
	if got := Int(1).EncodedSize(); got != 8 {
		t.Errorf("int size %d, want 8", got)
	}
	if got := Bool(true).EncodedSize(); got != 1 {
		t.Errorf("bool size %d, want 1", got)
	}
	if got := Str("Warning").EncodedSize(); got != 2+7 {
		t.Errorf("string size %d, want 9", got)
	}
}

func TestNewTagsSorted(t *testing.T) {
	ts := NewTags(map[string]string{"b": "2", "a": "1", "c": "3"})
	want := Tags{{"a", "1"}, {"b", "2"}, {"c", "3"}}
	if len(ts) != len(want) {
		t.Fatalf("len = %d", len(ts))
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("tags = %v, want %v", ts, want)
		}
	}
}

func TestTagsSortedIdempotent(t *testing.T) {
	ts := Tags{{"a", "1"}, {"b", "2"}}
	got := ts.Sorted()
	if &got[0] != &ts[0] {
		t.Fatal("already-sorted tags should not be copied")
	}
	unsorted := Tags{{"b", "2"}, {"a", "1"}}
	got2 := unsorted.Sorted()
	if got2[0].Key != "a" {
		t.Fatalf("Sorted did not sort: %v", got2)
	}
	if unsorted[0].Key != "b" {
		t.Fatal("Sorted mutated its receiver")
	}
}

func TestTagsGet(t *testing.T) {
	ts := Tags{{"NodeId", "10.101.1.1"}, {"Label", "NodePower"}}
	if v, ok := ts.Get("NodeId"); !ok || v != "10.101.1.1" {
		t.Fatalf("Get(NodeId) = %q,%v", v, ok)
	}
	if _, ok := ts.Get("missing"); ok {
		t.Fatal("Get(missing) reported ok")
	}
}

// pointKey is p's series key, tags in canonical order, as a write
// resolves it.
func pointKey(p *Point) string { return seriesKey(p.Measurement, p.Tags.Sorted()) }

func TestPointSeriesKeyCanonical(t *testing.T) {
	a := Point{
		Measurement: "Power",
		Tags:        Tags{{"NodeId", "10.101.1.1"}, {"Label", "NodePower"}},
	}
	b := Point{
		Measurement: "Power",
		Tags:        Tags{{"Label", "NodePower"}, {"NodeId", "10.101.1.1"}},
	}
	if pointKey(&a) != pointKey(&b) {
		t.Fatalf("series keys differ for same identity: %q vs %q", pointKey(&a), pointKey(&b))
	}
	if want := "Power,Label=NodePower,NodeId=10.101.1.1"; pointKey(&a) != want {
		t.Fatalf("series key = %q, want %q", pointKey(&a), want)
	}
}

func TestPointValidate(t *testing.T) {
	good := Point{Measurement: "m", Fields: map[string]Value{"f": Float(1)}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
	cases := []Point{
		{Fields: map[string]Value{"f": Float(1)}},                                          // no measurement
		{Measurement: "m"},                                                                 // no fields
		{Measurement: "m", Fields: map[string]Value{"": Float(1)}},                         // empty field key
		{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Tags: Tags{{"", "v"}}}, // empty tag key
		{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Tags: Tags{{"time", "v"}}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid point accepted", i)
		}
	}
}

func TestFormatParseTimeRoundTrip(t *testing.T) {
	const sec = int64(1583792296)
	s := FormatTime(sec)
	got, err := ParseTime(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != sec {
		t.Fatalf("round trip %d -> %q -> %d", sec, s, got)
	}
}

func TestParseTimeRejectsGarbage(t *testing.T) {
	if _, err := ParseTime("not-a-time"); err == nil {
		t.Fatal("ParseTime accepted garbage")
	}
}

func TestPropTimeRoundTrip(t *testing.T) {
	f := func(sec int32) bool {
		s := int64(sec)
		got, err := ParseTime(FormatTime(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSeriesKeyOrderInvariant(t *testing.T) {
	f := func(k1, v1, k2, v2 string) bool {
		if k1 == "" || k2 == "" || k1 == k2 {
			return true
		}
		a := Point{Measurement: "m", Tags: Tags{{k1, v1}, {k2, v2}}}
		b := Point{Measurement: "m", Tags: Tags{{k2, v2}, {k1, v1}}}
		return pointKey(&a) == pointKey(&b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropEncodedSizePositive(t *testing.T) {
	f := func(fkey string, s string, i int64, fl float64) bool {
		if fkey == "" {
			fkey = "f"
		}
		p := Point{
			Measurement: "m",
			Fields: map[string]Value{
				fkey:       Str(s),
				fkey + "i": Int(i),
				fkey + "f": Float(fl),
			},
		}
		return p.EncodedSize() >= 8+3*2+len(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
