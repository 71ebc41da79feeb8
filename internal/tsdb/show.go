package tsdb

import (
	"fmt"
	"sort"
	"strings"
)

// Metadata statements, the InfluxQL SHOW family:
//
//	SHOW MEASUREMENTS
//	SHOW SERIES [FROM <m>]
//	SHOW TAG KEYS [FROM <m>]
//	SHOW TAG VALUES [FROM <m>] WITH KEY = <key>
//	SHOW FIELD KEYS [FROM <m>]
//
// The Query entry point dispatches to these when the statement starts
// with SHOW; results use the same Result/ResultSeries shape as data
// queries (string values, zero timestamps).

// isShowStatement reports whether stmt is a SHOW statement.
func isShowStatement(stmt string) bool {
	trimmed := strings.TrimSpace(stmt)
	return len(trimmed) >= 4 && strings.EqualFold(trimmed[:4], "SHOW")
}

// isDropStatement reports whether stmt is a DROP statement.
func isDropStatement(stmt string) bool {
	trimmed := strings.TrimSpace(stmt)
	return len(trimmed) >= 4 && strings.EqualFold(trimmed[:4], "DROP")
}

// execDrop parses and executes DROP MEASUREMENT <name>.
func (db *DB) execDrop(stmt string) (*Result, error) {
	p := &parser{lex: newLexer(stmt)}
	if p.lex.err != nil {
		return nil, fmt.Errorf("tsdb: parse %q: %w", stmt, p.lex.err)
	}
	if !p.keyword("DROP") || !p.keyword("MEASUREMENT") {
		return nil, fmt.Errorf("tsdb: only DROP MEASUREMENT is supported: %q", stmt)
	}
	tok, err := p.expect(tokIdent, "measurement name")
	if err != nil {
		return nil, err
	}
	if err := expectEnd(p); err != nil {
		return nil, err
	}
	dropped, err := db.DropMeasurement(tok.text)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if dropped {
		res.Stats.Rows = 1
	}
	return res, nil
}

// execShow parses and executes a SHOW statement.
func (db *DB) execShow(stmt string) (*Result, error) {
	p := &parser{lex: newLexer(stmt)}
	if p.lex.err != nil {
		return nil, fmt.Errorf("tsdb: parse %q: %w", stmt, p.lex.err)
	}
	if !p.keyword("SHOW") {
		return nil, fmt.Errorf("tsdb: not a SHOW statement: %q", stmt)
	}
	switch {
	case p.keyword("MEASUREMENTS"):
		return db.showMeasurements(p)
	case p.keyword("SERIES"):
		return db.showSeries(p)
	case p.keyword("TAG"):
		switch {
		case p.keyword("KEYS"):
			return db.showTagKeys(p)
		case p.keyword("VALUES"):
			return db.showTagValues(p)
		}
		return nil, fmt.Errorf("tsdb: expected KEYS or VALUES after SHOW TAG")
	case p.keyword("FIELD"):
		if !p.keyword("KEYS") {
			return nil, fmt.Errorf("tsdb: expected KEYS after SHOW FIELD")
		}
		return db.showFieldKeys(p)
	default:
		return nil, fmt.Errorf("tsdb: unsupported SHOW statement %q", stmt)
	}
}

// parseOptionalFrom consumes "FROM <measurement>" if present.
func parseOptionalFrom(p *parser) (string, error) {
	if !p.keyword("FROM") {
		return "", nil
	}
	tok, err := p.expect(tokIdent, "measurement name")
	if err != nil {
		return "", err
	}
	return tok.text, nil
}

func expectEnd(p *parser) error {
	if t := p.peek(); t.kind != tokEOF {
		return fmt.Errorf("tsdb: unexpected trailing input %s", t)
	}
	return nil
}

// stringColumn is a SHOW result column.
func stringColumn(values []string) resultCol {
	var c resultCol
	for _, v := range values {
		c.vals.append(Str(v))
	}
	return c
}

// stringListResult renders values as single-column rows.
func stringListResult(name, column string, values []string) *Result {
	res := &Result{}
	res.Stats.Rows = len(values)
	if len(values) > 0 {
		res.Series = []ResultSeries{{Name: name, Columns: []string{column}, Times: make([]int64, len(values)),
			cols: []resultCol{stringColumn(values)}}}
	}
	return res
}

func (db *DB) showMeasurements(p *parser) (*Result, error) {
	if err := expectEnd(p); err != nil {
		return nil, err
	}
	return stringListResult("measurements", "name", db.Measurements()), nil
}

func (db *DB) showSeries(p *parser) (*Result, error) {
	from, err := parseOptionalFrom(p)
	if err != nil {
		return nil, err
	}
	if err := expectEnd(p); err != nil {
		return nil, err
	}
	v := db.view.Load()
	var keys []string
	for m, mi := range v.index {
		if from != "" && m != from {
			continue
		}
		for k := range mi.series {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return stringListResult("series", "key", keys), nil
}

func (db *DB) showTagKeys(p *parser) (*Result, error) {
	from, err := parseOptionalFrom(p)
	if err != nil {
		return nil, err
	}
	if err := expectEnd(p); err != nil {
		return nil, err
	}
	v := db.view.Load()
	set := map[string]bool{}
	for m, mi := range v.index {
		if from != "" && m != from {
			continue
		}
		for k := range mi.byTag {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return stringListResult("tagKeys", "tagKey", keys), nil
}

func (db *DB) showTagValues(p *parser) (*Result, error) {
	from, err := parseOptionalFrom(p)
	if err != nil {
		return nil, err
	}
	if !p.keyword("WITH") {
		return nil, fmt.Errorf("tsdb: SHOW TAG VALUES requires WITH KEY = <key>")
	}
	if !p.keyword("KEY") {
		return nil, fmt.Errorf("tsdb: expected KEY after WITH")
	}
	if _, err := p.expect(tokEq, "="); err != nil {
		return nil, err
	}
	keyTok := p.next()
	if keyTok.kind != tokIdent && keyTok.kind != tokString {
		return nil, fmt.Errorf("tsdb: expected tag key, got %s", keyTok)
	}
	if err := expectEnd(p); err != nil {
		return nil, err
	}
	v := db.view.Load()
	set := map[string]bool{}
	for m, mi := range v.index {
		if from != "" && m != from {
			continue
		}
		for tv := range mi.byTag[keyTok.text] {
			set[tv] = true
		}
	}
	vals := make([]string, 0, len(set))
	for tv := range set {
		vals = append(vals, tv)
	}
	sort.Strings(vals)
	return stringListResult("tagValues", "value", vals), nil
}

func (db *DB) showFieldKeys(p *parser) (*Result, error) {
	from, err := parseOptionalFrom(p)
	if err != nil {
		return nil, err
	}
	if err := expectEnd(p); err != nil {
		return nil, err
	}
	v := db.view.Load()
	res := &Result{}
	var measurements []string
	for m := range v.index {
		if from != "" && m != from {
			continue
		}
		measurements = append(measurements, m)
	}
	sort.Strings(measurements)
	for _, m := range measurements {
		mi := v.index[m]
		var fields, types []string
		for f := range mi.fields {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			types = append(types, mi.fields[f].String())
		}
		res.Stats.Rows += len(fields)
		if len(fields) > 0 {
			res.Series = append(res.Series, ResultSeries{Name: m, Columns: []string{"fieldKey", "fieldType"},
				Times: make([]int64, len(fields)), cols: []resultCol{stringColumn(fields), stringColumn(types)}})
		}
	}
	return res, nil
}
