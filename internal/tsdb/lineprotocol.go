package tsdb

import (
	"fmt"
	"math"
	"sort"
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
// dst. Tags are emitted in canonical (sorted) order; fields sorted by
// key.
func AppendLineProtocol(dst []byte, p *Point) []byte {
	// A '"' is escaped everywhere outside a string value: the parser's
	// section splitter treats a bare one as opening a quoted region.
	// A leading '#' or white space (the blank has its own escape) is
	// escaped so the line is not read as a comment or trimmed.
	if r, _ := utf8.DecodeRuneInString(p.Measurement); r == '#' || r != ' ' && unicode.IsSpace(r) {
		dst = append(dst, '\\')
	}
	dst = appendEscaped(dst, p.Measurement, `, "`)
	for _, t := range p.Tags.Sorted() {
		dst = append(dst, ',')
		dst = appendEscaped(dst, t.Key, `,= "`)
		dst = append(dst, '=')
		dst = appendEscaped(dst, t.Value, `,= "`)
	}
	dst = append(dst, ' ')
	keys := make([]string, 0, len(p.Fields))
	for k := range p.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEscaped(dst, k, `,= "`)
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

func appendEscaped(dst []byte, s, escapeSet string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' || strings.IndexByte(escapeSet, c) >= 0 {
			dst = append(dst, '\\')
		}
		dst = append(dst, c)
	}
	return dst
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
		dst = append(dst, '"')
		for i := 0; i < len(v.S); i++ {
			c := v.S[i]
			if c == '"' || c == '\\' {
				dst = append(dst, '\\')
			}
			dst = append(dst, c)
		}
		return append(dst, '"')
	default:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	}
}

// ParseLineProtocol parses a batch of line-protocol lines. Empty lines
// and '#' comments are skipped. defaultTime stamps lines without a
// timestamp.
func ParseLineProtocol(data []byte, defaultTime int64) ([]Point, error) {
	var out []Point
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line []byte
		if idx := indexByteB(data, '\n'); idx >= 0 {
			line = data[:idx]
			data = data[idx+1:]
		} else {
			line = data
			data = nil
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

func indexByteB(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// splitUnescaped splits s at the first unescaped occurrence of sep.
func splitUnescaped(s string, sep byte) (string, string, bool) {
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
	return s, "", false
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
		body := s[1 : len(s)-1]
		var b strings.Builder
		for i := 0; i < len(body); i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
			}
			b.WriteByte(body[i])
		}
		return Str(b.String()), nil
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
