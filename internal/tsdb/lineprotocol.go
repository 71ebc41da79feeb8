package tsdb

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// InfluxDB line protocol support. The paper's collector writes to
// InfluxDB over its HTTP /write endpoint, whose body is line protocol:
//
//	Power,NodeId=10.101.1.1,Label=NodePower Reading=273.8 1583792296
//
// This file implements both directions so external tools can ingest
// into the engine (and the engine's contents can be exported to a real
// InfluxDB). Timestamps are in seconds (the engine's resolution).

// AppendLineProtocol renders one point in line protocol, appending to
// dst: its series key (tags in canonical order), then its fields
// sorted by key, then its time.
func AppendLineProtocol(dst []byte, p *Point) []byte {
	dst = append(appendSeriesKey(dst, p.Measurement, p.Tags.Sorted()), ' ')
	for i, k := range slices.Sorted(maps.Keys(p.Fields)) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEscaped(dst, k, escName)
		dst = append(dst, '=')
		dst = appendFieldValue(dst, p.Fields[k])
	}
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, p.Time, 10)
	return dst
}

// FormatLineProtocol renders a batch, one point per line.
func FormatLineProtocol(points []Point) []byte {
	var dst []byte
	for i := range points {
		dst = AppendLineProtocol(dst, &points[i])
		dst = append(dst, '\n')
	}
	return dst
}

func seriesKey(measurement string, sorted Tags) string {
	return string(appendSeriesKey(nil, measurement, sorted))
}

// appendSeriesKey appends the one series identity of measurement and
// its sorted tags to b: the escaped line-protocol prefix
// measurement,k1=v1,k2=v2, so no two identities share a key. A leading
// '#' or white space (the blank has its own escape) is escaped so a
// line is not read as a comment or trimmed.
func appendSeriesKey(b []byte, measurement string, sorted Tags) []byte {
	if r, _ := utf8.DecodeRuneInString(measurement); r == '#' || r != ' ' && unicode.IsSpace(r) {
		b = append(b, '\\')
	}
	b = appendEscaped(b, measurement, escMeasurement)
	for _, t := range sorted {
		b = appendEscaped(append(b, ','), t.Key, escName)
		b = appendEscaped(append(b, '='), t.Value, escName)
	}
	return b
}

// Escape classes for appendEscaped: a measurement escapes '\', ',', the
// blank and '"' (the parser's section splitter treats a bare '"' as
// opening a quoted region); a tag key or value and a field key escape
// '=' too; a string field value escapes only '\' and '"'.
const escMeasurement, escName, escString = 1, 2, 4

var escapes = [256]uint8{
	'\\': escMeasurement | escName | escString, '"': escMeasurement | escName | escString,
	',': escMeasurement | escName, ' ': escMeasurement | escName, '=': escName}

// appendEscaped appends s with a '\' before each byte its class
// escapes; the runs between them are appended whole.
func appendEscaped(dst []byte, s string, class uint8) []byte {
	run := 0
	for i := 0; i < len(s); i++ {
		if escapes[s[i]]&class != 0 {
			dst = append(append(dst, s[run:i]...), '\\')
			run = i
		}
	}
	return append(dst, s[run:]...)
}

func appendFieldValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindInt:
		dst = strconv.AppendInt(dst, v.I, 10)
		return append(dst, 'i')
	case KindBool:
		return strconv.AppendBool(dst, v.B)
	case KindString:
		return append(appendEscaped(append(dst, '"'), v.S, escString), '"')
	default:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	}
}

// ParseLineProtocol parses a batch of line-protocol lines. Empty lines
// and '#' comments are skipped. defaultTime stamps lines without a
// timestamp. A line ends at a newline outside a quoted field value, so
// a string field may hold one; a comment ends at its first newline.
func ParseLineProtocol(data []byte, defaultTime int64) ([]Point, error) {
	var out []Point
	blank := func(r rune) bool { return r != '\n' && unicode.IsSpace(r) }
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line []byte
		if body := bytes.TrimLeftFunc(data, blank); len(body) > 0 && body[0] == '#' {
			line, data, _ = bytes.Cut(data, []byte("\n"))
		} else {
			line, data, _ = splitUnescaped(data, '\n')
		}
		trimmed := strings.TrimSpace(string(line))
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		p, err := parseLine(trimmed, defaultTime)
		if err != nil {
			return nil, fmt.Errorf("tsdb: line %d: %w", lineNo, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// splitUnescaped splits s at the first unescaped occurrence of sep
// outside a quoted value.
func splitUnescaped[S ~string | ~[]byte](s S, sep byte) (S, S, bool) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			// Skip quoted string contents.
			for i++; i < len(s); i++ {
				if s[i] == '\\' {
					i++
				} else if s[i] == '"' {
					break
				}
			}
		case sep:
			return s[:i], s[i+1:], true
		}
	}
	return s, s[len(s):], false
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func parseLine(line string, defaultTime int64) (Point, error) {
	var p Point
	// measurement[,tags] <fields> [timestamp]
	head, rest, ok := splitUnescaped(line, ' ')
	if !ok {
		return p, fmt.Errorf("missing fields section")
	}
	// Measurement and tags.
	meas, tagsPart, hasTags := splitUnescaped(head, ',')
	p.Measurement = unescape(meas)
	if p.Measurement == "" {
		return p, fmt.Errorf("empty measurement")
	}
	for hasTags {
		var pair string
		pair, tagsPart, hasTags = splitUnescaped(tagsPart, ',')
		k, v, ok := splitUnescaped(pair, '=')
		if !ok {
			return p, fmt.Errorf("bad tag %q", pair)
		}
		p.Tags = append(p.Tags, Tag{Key: unescape(k), Value: unescape(v)})
	}
	// Fields and optional timestamp.
	fieldsPart, tsPart, hasTS := splitUnescaped(rest, ' ')
	p.Fields = make(map[string]Value)
	for fieldsPart != "" {
		var pair string
		var more bool
		pair, fieldsPart, more = splitUnescaped(fieldsPart, ',')
		k, v, ok := splitUnescaped(pair, '=')
		if !ok {
			return p, fmt.Errorf("bad field %q", pair)
		}
		val, err := parseFieldValue(v)
		if err != nil {
			return p, fmt.Errorf("field %q: %w", k, err)
		}
		p.Fields[unescape(k)] = val
		if !more {
			break
		}
	}
	if len(p.Fields) == 0 {
		return p, fmt.Errorf("no fields")
	}
	p.Time = defaultTime
	if hasTS {
		tsPart = strings.TrimSpace(tsPart)
		if tsPart != "" {
			ts, err := strconv.ParseInt(tsPart, 10, 64)
			if err != nil {
				return p, fmt.Errorf("bad timestamp %q", tsPart)
			}
			p.Time = ts
		}
	}
	return p, p.Validate()
}

func parseFieldValue(s string) (Value, error) {
	if s == "" {
		return Value{}, fmt.Errorf("empty value")
	}
	if s[0] == '"' {
		if len(s) < 2 || s[len(s)-1] != '"' {
			return Value{}, fmt.Errorf("unterminated string %q", s)
		}
		return Str(unescape(s[1 : len(s)-1])), nil
	}
	switch s {
	case "t", "T", "true", "True", "TRUE":
		return Bool(true), nil
	case "f", "F", "false", "False", "FALSE":
		return Bool(false), nil
	}
	if strings.HasSuffix(s, "i") {
		iv, err := strconv.ParseInt(s[:len(s)-1], 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad integer %q", s)
		}
		return Int(iv), nil
	}
	// ParseFloat reads "NaN" and "Inf"; line protocol, like InfluxDB's,
	// has no non-finite float.
	fv, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(fv) || math.IsInf(fv, 0) {
		return Value{}, fmt.Errorf("bad number %q", s)
	}
	return Float(fv), nil
}

// WriteLineProtocol parses and stores a line-protocol batch.
func (db *DB) WriteLineProtocol(data []byte, defaultTime int64) (int, error) {
	pts, err := ParseLineProtocol(data, defaultTime)
	if err != nil {
		return 0, err
	}
	if len(pts) == 0 {
		return 0, nil
	}
	return len(pts), db.WritePoints(pts)
}
