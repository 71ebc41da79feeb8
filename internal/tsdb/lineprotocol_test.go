package tsdb

import (
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
		if strings.ContainsAny(s, "\n\r") {
			return true // line protocol is line-oriented by definition
		}
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
