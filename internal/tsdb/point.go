// Package tsdb implements the time-series storage engine MonSTer uses
// in place of InfluxDB: measurements hold tag-indexed series of
// timestamped field values, writes are batched, and an InfluxQL-subset
// query language supports the aggregation/downsampling queries the
// Metrics Builder issues (SELECT agg(field) FROM m WHERE tags AND time
// range GROUP BY time(interval)).
//
// The engine additionally exposes exact scan statistics (series probed,
// points scanned, encoded bytes touched) so that the experiment harness
// can charge device time for a query without guessing — the paper's
// schema-cardinality and storage-device results (Figures 12–14) depend
// on these quantities.
package tsdb

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// ValueKind discriminates the types a field value can hold, mirroring
// InfluxDB's float/integer/string/boolean field types.
type ValueKind uint8

// Field value kinds.
const (
	KindFloat ValueKind = iota
	KindInt
	KindString
	KindBool
)

// String implements fmt.Stringer.
func (k ValueKind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "integer"
	case KindString:
		return "string"
	case KindBool:
		return "boolean"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a dynamically-typed field value. The zero Value is the float
// 0.
type Value struct {
	Kind ValueKind
	F    float64
	I    int64
	S    string
	B    bool
}

// Float returns a float-typed Value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Int returns an integer-typed Value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// String returns a string-typed Value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean-typed Value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// AsFloat converts numeric values to float64; strings and bools report
// ok=false.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindFloat:
		return v.F, true
	case KindInt:
		return float64(v.I), true
	default:
		return 0, false
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool { return v == o }

// GoString renders the value as it would appear in a query result.
func (v Value) String() string {
	switch v.Kind {
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindString:
		return v.S
	case KindBool:
		return fmt.Sprintf("%t", v.B)
	default:
		return "?"
	}
}

// EncodedSize reports the value's size under the engine's canonical
// storage encoding: 8 bytes for numerics, 1 byte for booleans, length
// plus a 2-byte prefix for strings. This is the unit the data-volume
// experiments (Fig 13, 18) measure.
func (v Value) EncodedSize() int {
	switch v.Kind {
	case KindFloat, KindInt:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 2 + len(v.S)
	default:
		return 8
	}
}

// Tag is a single key=value pair of series metadata.
type Tag struct {
	Key   string
	Value string
}

// Tags is a set of tags. Canonical form is sorted by key.
type Tags []Tag

// NewTags builds a canonical (sorted, copied) tag set from a map.
func NewTags(m map[string]string) Tags {
	ts := make(Tags, 0, len(m))
	for k, v := range m {
		ts = append(ts, Tag{k, v})
	}
	slices.SortStableFunc(ts, cmpTagKey)
	return ts
}

// Sorted returns the tag set in canonical order: the receiver itself
// if it is already sorted, else a sorted copy.
func (ts Tags) Sorted() Tags {
	var buf Tags
	return ts.sortedInto(&buf)
}

// sortedInto is the one tag canonicalisation: ts itself if its keys
// are already in order, else a copy in *buf sorted by key (stable, so
// duplicate keys keep their given order). No reflection, and no
// allocation once *buf has room.
func (ts Tags) sortedInto(buf *Tags) Tags {
	if slices.IsSortedFunc(ts, cmpTagKey) {
		return ts
	}
	*buf = append((*buf)[:0], ts...)
	slices.SortStableFunc(*buf, cmpTagKey)
	return *buf
}

func cmpTagKey(a, b Tag) int { return strings.Compare(a.Key, b.Key) }

// Get looks up a tag value by key.
func (ts Tags) Get(key string) (string, bool) {
	for _, t := range ts {
		if t.Key == key {
			return t.Value, true
		}
	}
	return "", false
}

// Point is a single sample: one timestamp, one tag set, one or more
// field values under a measurement. Time is Unix seconds (the paper
// stores epoch-second timestamps after its schema optimization).
type Point struct {
	Measurement string
	Tags        Tags
	Fields      map[string]Value
	Time        int64
}

// Validate reports whether the point can be written. A name — the
// measurement, a tag key or value, a field key — holds no CR or LF,
// so every written point renders as one line of line protocol.
func (p *Point) Validate() error { return p.validate(true) }

// validate is Validate; with lineBreaks false it skips the line-break
// rule, which is how WAL replay checks a point: a log written before
// the rule, and the rollup rows maintenance derives from a series
// stored then, may hold such a name, and neither is corruption.
func (p *Point) validate(lineBreaks bool) error {
	if p.Measurement == "" {
		return fmt.Errorf("tsdb: point has empty measurement")
	}
	if lineBreaks && hasLineBreak(p.Measurement) {
		return fmt.Errorf("tsdb: measurement %q has a line break", p.Measurement)
	}
	if len(p.Fields) == 0 {
		return fmt.Errorf("tsdb: point in %q has no fields", p.Measurement)
	}
	for k := range p.Fields {
		if k == "" {
			return fmt.Errorf("tsdb: point in %q has empty field key", p.Measurement)
		}
		if lineBreaks && hasLineBreak(k) {
			return fmt.Errorf("tsdb: field key %q in %q has a line break", k, p.Measurement)
		}
	}
	for _, t := range p.Tags {
		if t.Key == "" {
			return fmt.Errorf("tsdb: point in %q has empty tag key", p.Measurement)
		}
		if t.Key == "time" {
			return fmt.Errorf("tsdb: tag key %q is reserved", t.Key)
		}
		if lineBreaks && (hasLineBreak(t.Key) || hasLineBreak(t.Value)) {
			return fmt.Errorf("tsdb: tag %q=%q in %q has a line break", t.Key, t.Value, p.Measurement)
		}
	}
	return nil
}

// hasLineBreak is a byte loop: on short names strings.ContainsAny
// makes Validate about twice as slow.
func hasLineBreak(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' || s[i] == '\r' {
			return true
		}
	}
	return false
}

// SeriesKey returns the canonical series identity string:
// measurement,k1=v1,k2=v2 with tags sorted by key.
func (p *Point) SeriesKey() string {
	return seriesKey(p.Measurement, p.Tags.Sorted())
}

func seriesKey(measurement string, sorted Tags) string {
	return string(appendSeriesKey(nil, measurement, sorted))
}

// appendSeriesKey appends the series identity of measurement and its
// sorted tags to b.
func appendSeriesKey(b []byte, measurement string, sorted Tags) []byte {
	b = append(b, measurement...)
	for _, t := range sorted {
		b = append(append(append(append(b, ','), t.Key...), '='), t.Value...)
	}
	return b
}

// EncodedSize reports the point's size under the canonical storage
// encoding: 8 bytes of timestamp plus each field's key and value.
// Series-key bytes are accounted once per series per shard by the
// engine, not per point.
func (p *Point) EncodedSize() int {
	n := 8
	for k, v := range p.Fields {
		n += 2 + len(k) + v.EncodedSize()
	}
	return n
}

// FormatTime renders a Unix-seconds timestamp in RFC3339 UTC, the
// format the query language accepts in time predicates.
func FormatTime(sec int64) string {
	return time.Unix(sec, 0).UTC().Format(time.RFC3339)
}

// ParseTime parses an RFC3339 timestamp to Unix seconds.
func ParseTime(s string) (int64, error) {
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return 0, fmt.Errorf("tsdb: bad timestamp %q: %w", s, err)
	}
	return t.Unix(), nil
}
