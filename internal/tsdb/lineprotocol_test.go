package tsdb

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatLineProtocolPaperShape(t *testing.T) {
	p := Point{
		Measurement: "Power",
		Tags:        Tags{{"NodeId", "10.101.1.1"}, {"Label", "NodePower"}},
		Fields:      map[string]Value{"Reading": Float(273.8)},
		Time:        1583792296,
	}
	got := string(AppendLineProtocol(nil, &p))
	want := "Power,Label=NodePower,NodeId=10.101.1.1 Reading=273.8 1583792296"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

func TestLineProtocolRoundTrip(t *testing.T) {
	pts := []Point{
		{
			Measurement: "Power",
			Tags:        Tags{{"NodeId", "10.101.1.1"}, {"Label", "NodePower"}},
			Fields:      map[string]Value{"Reading": Float(273.8)},
			Time:        1583792296,
		},
		{
			Measurement: "JobsInfo",
			Tags:        Tags{{"JobId", "1291784"}},
			Fields: map[string]Value{
				"User":    Str("jieyao"),
				"Slots":   Int(36),
				"IsArray": Bool(false),
			},
			Time: 1583892564,
		},
	}
	data := FormatLineProtocol(pts)
	back, err := ParseLineProtocol(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("points = %d", len(back))
	}
	for i := range pts {
		if back[i].SeriesKey() != pts[i].SeriesKey() {
			t.Fatalf("series key %q != %q", back[i].SeriesKey(), pts[i].SeriesKey())
		}
		if back[i].Time != pts[i].Time {
			t.Fatalf("time %d != %d", back[i].Time, pts[i].Time)
		}
		for k, v := range pts[i].Fields {
			if !back[i].Fields[k].Equal(v) {
				t.Fatalf("field %s: %v != %v", k, back[i].Fields[k], v)
			}
		}
	}
}

func TestLineProtocolEscaping(t *testing.T) {
	p := Point{
		Measurement: "my measurement,x",
		Tags:        Tags{{"tag key", "va=lue, with stuff"}},
		Fields:      map[string]Value{"fi eld": Str(`quote " and \ slash`)},
		Time:        42,
	}
	data := FormatLineProtocol([]Point{p})
	back, err := ParseLineProtocol(data, 0)
	if err != nil {
		t.Fatalf("%v (line: %s)", err, data)
	}
	if back[0].Measurement != p.Measurement {
		t.Fatalf("measurement %q", back[0].Measurement)
	}
	if v, _ := back[0].Tags.Get("tag key"); v != "va=lue, with stuff" {
		t.Fatalf("tag = %q", v)
	}
	if got := back[0].Fields["fi eld"].S; got != `quote " and \ slash` {
		t.Fatalf("field = %q", got)
	}
}

func TestParseLineProtocolVariants(t *testing.T) {
	data := []byte(`
# comment line
cpu,host=a usage=0.5 100
cpu,host=b usage=1i
mem free=t
`)
	pts, err := ParseLineProtocol(data, 999)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Time != 100 {
		t.Fatalf("explicit ts = %d", pts[0].Time)
	}
	if pts[1].Time != 999 || pts[1].Fields["usage"].Kind != KindInt {
		t.Fatalf("default ts point = %+v", pts[1])
	}
	if pts[2].Fields["free"].Kind != KindBool || !pts[2].Fields["free"].B {
		t.Fatalf("bool point = %+v", pts[2])
	}
}

func TestParseLineProtocolErrors(t *testing.T) {
	bad := []string{
		"justname",
		"m,tagonly=v",
		"m field=",
		`m field="unterminated`,
		"m field=notanumber",
		"m field=1 notatimestamp",
		"m,badtag field=1",
		",empty field=1",
		"m 1x=2y=3",
		// Non-finite floats: ParseFloat reads them, line protocol has none.
		"m field=NaN",
		"m field=+Inf 5",
		"m field=-Inf",
		"m a=1,b=nan 5",
		"m field=Infinity",
	}
	for _, s := range bad {
		if _, err := ParseLineProtocol([]byte(s), 0); err == nil {
			t.Errorf("ParseLineProtocol(%q) succeeded, want error", s)
		}
	}
}

func TestWriteLineProtocolIntoDB(t *testing.T) {
	db := Open(Options{})
	n, err := db.WriteLineProtocol([]byte(
		"Power,NodeId=10.101.1.1,Label=NodePower Reading=273.8 1583792296\n"+
			"Power,NodeId=10.101.1.2,Label=NodePower Reading=281.2 1583792296\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d points", n)
	}
	res, err := db.Query(`SELECT mean("Reading") FROM "Power"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Rows()[0].Values[0].F; got < 277 || got > 278 {
		t.Fatalf("mean = %v", got)
	}
	if n, err := db.WriteLineProtocol(nil, 0); err != nil || n != 0 {
		t.Fatalf("empty write = %d, %v", n, err)
	}
}

func TestPropLineProtocolRoundTripsFloats(t *testing.T) {
	f := func(node string, reading float64, ts int64) bool {
		if reading != reading { // NaN never round-trips
			return true
		}
		if strings.TrimSpace(node) == "" {
			node = "n"
		}
		p := Point{
			Measurement: "m",
			Tags:        Tags{{"NodeId", node}},
			Fields:      map[string]Value{"Reading": Float(reading)},
			Time:        ts,
		}
		if p.Validate() != nil {
			return true
		}
		back, err := ParseLineProtocol(FormatLineProtocol([]Point{p}), 0)
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].Fields["Reading"].F == reading && back[0].Time == ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropLineProtocolRoundTripsStrings(t *testing.T) {
	f := func(s string) bool {
		p := Point{
			Measurement: "m",
			Fields:      map[string]Value{"v": Str(s)},
			Time:        1,
		}
		back, err := ParseLineProtocol(FormatLineProtocol([]Point{p}), 0)
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].Fields["v"].S == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLineProtocolLineBreaks pins how line breaks cross the wire. A
// string field value may hold CR and LF: it is written raw inside its
// quotes, and the parser ends a line only at a newline outside quotes.
// A name may not: Validate refuses a measurement, tag key, tag value or
// field key holding one, so no written point renders as two lines.
func TestLineProtocolLineBreaks(t *testing.T) {
	pts := []Point{
		{Measurement: "JobsInfo", Tags: Tags{{"JobId", "7"}}, Fields: map[string]Value{"JobName": Str("train\nstep 2")}, Time: 1},
		{Measurement: "JobsInfo", Tags: Tags{{"JobId", "8"}}, Fields: map[string]Value{"JobName": Str("a\r\n\"b\"\\\n"), "Slots": Int(4)}, Time: 2},
		{Measurement: "m", Fields: map[string]Value{"f": Str("\n")}, Time: 3},
		{Measurement: "m", Fields: map[string]Value{"f": Float(1)}, Time: 4},
	}
	data := FormatLineProtocol(pts)
	back, err := ParseLineProtocol(data, 0)
	if err != nil {
		t.Fatalf("%q: %v", data, err)
	}
	if !reflect.DeepEqual(back, pts) {
		t.Fatalf("round trip of %q:\n got %+v\nwant %+v", data, back, pts)
	}

	for _, c := range []struct {
		in   string
		want int // points; -1 for an error
	}{
		{"m s=\"a\nb\" 1\nm f=1 2\n", 2},
		{"m s=\"a\\\"\nb\" 1\r\nm f=1 2\r\n", 2},             // an escaped quote does not close the value
		{"# a \" in a comment\nm f=1 1\n  # \"\nm f=2 2", 2}, // a comment ends at its newline
		{"m,t=\"a\nb\" f=1 1\n", -1},                         // a quoted tag value is no field value
		{"m s=\"unterminated\nm f=1 2\n", -1},                // the quote runs to the end of the batch
		{"m\\\nf=1 1\n", -1},                                 // an escaped newline is a line break in a name
	} {
		got, err := ParseLineProtocol([]byte(c.in), 0)
		if n := len(got); err != nil && c.want >= 0 || err == nil && n != c.want {
			t.Errorf("ParseLineProtocol(%q) = %d points, %v; want %d", c.in, n, err, c.want)
		}
	}

	for _, p := range []Point{
		{Measurement: "m\n", Fields: map[string]Value{"f": Float(1)}},
		{Measurement: "m", Tags: Tags{{"a\rb", "v"}}, Fields: map[string]Value{"f": Float(1)}},
		{Measurement: "m", Tags: Tags{{"NodeId", "10.101.1.1\n"}}, Fields: map[string]Value{"f": Float(1)}},
		{Measurement: "m", Fields: map[string]Value{"f\r\n": Float(1)}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
		if err := Open(Options{}).WritePoint(p); err == nil {
			t.Errorf("WritePoint stored %+v", p)
		}
	}
}
