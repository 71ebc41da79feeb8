package tsdb

import (
	"fmt"
	"math"
	"regexp"
	"strings"
)

// The query language is the subset of InfluxQL the paper's Metrics
// Builder generates, e.g.:
//
//	SELECT max("Reading") FROM "Power"
//	  WHERE "NodeId"='10.101.1.1' AND "Label"='NodePower'
//	  AND time >= '2020-04-20T12:00:00Z' AND time < '2020-04-21T12:00:00Z'
//	  GROUP BY time(5m)
//
// Supported: one or more projected fields (raw or aggregated), tag
// equality and regex predicates joined with AND, absolute time bounds
// (RFC3339 strings or integer epoch seconds), GROUP BY time(interval)
// and/or tags, and LIMIT.
//
// The regex predicate ("NodeId" =~ /^(a|b|c)$/) is the multi-node
// batching primitive the optimized Metrics Builder generates: one
// query covers a whole node chunk instead of one query per node.

// FieldExpr is one projected column: a raw field or an aggregate over a
// field.
type FieldExpr struct {
	Func  string // "" for a raw field, else an aggregate name (aggNames)
	Field string
}

// Label is the result column name for the expression.
func (f FieldExpr) Label() string {
	if f.Func == "" {
		return f.Field
	}
	return f.Func
}

// TagCond is an equality predicate on a tag.
type TagCond struct {
	Key   string
	Value string
}

// TagRegex is a regular-expression predicate on a tag ("Key" =~ /re/).
// A series matches when the tag is present and its value matches Re.
type TagRegex struct {
	Key string
	Re  *regexp.Regexp
}

// Query is a parsed statement.
type Query struct {
	Fields      []FieldExpr
	Measurement string
	TagConds    []TagCond
	TagRegexps  []TagRegex
	Start       int64 // inclusive, unix seconds; MinInt64 when unbounded
	End         int64 // exclusive, unix seconds; MaxInt64 when unbounded
	GroupByTime int64 // bucket width in seconds; 0 = no time grouping
	GroupByTags []string
	Descending  bool // ORDER BY time DESC
	Limit       int  // 0 = no limit
}

// Aggregated reports whether every projected field is an aggregate.
func (q *Query) Aggregated() bool {
	for _, f := range q.Fields {
		if f.Func == "" {
			return false
		}
	}
	return len(q.Fields) > 0
}

// String renders the query back to (canonical) InfluxQL.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, f := range q.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		if f.Func != "" {
			fmt.Fprintf(&b, "%s(%q)", f.Func, f.Field)
		} else {
			fmt.Fprintf(&b, "%q", f.Field)
		}
	}
	fmt.Fprintf(&b, " FROM %q", q.Measurement)
	var conds []string
	for _, c := range q.TagConds {
		conds = append(conds, fmt.Sprintf("%q = '%s'", c.Key, c.Value))
	}
	for _, c := range q.TagRegexps {
		conds = append(conds, fmt.Sprintf("%q =~ /%s/", c.Key, strings.ReplaceAll(c.Re.String(), "/", `\/`)))
	}
	if q.Start != math.MinInt64 {
		conds = append(conds, fmt.Sprintf("time >= '%s'", FormatTime(q.Start)))
	}
	if q.End != math.MaxInt64 {
		conds = append(conds, fmt.Sprintf("time < '%s'", FormatTime(q.End)))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	var groups []string
	if q.GroupByTime > 0 {
		groups = append(groups, fmt.Sprintf("time(%s)", formatDurationQL(q.GroupByTime)))
	}
	for _, t := range q.GroupByTags {
		groups = append(groups, fmt.Sprintf("%q", t))
	}
	if len(groups) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(groups, ", "))
	}
	if q.Descending {
		b.WriteString(" ORDER BY time DESC")
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// formatDurationQL renders a number of seconds as an InfluxQL duration
// literal using the largest unit that divides it evenly.
func formatDurationQL(sec int64) string {
	switch {
	case sec%(7*24*3600) == 0 && sec >= 7*24*3600:
		return fmt.Sprintf("%dw", sec/(7*24*3600))
	case sec%(24*3600) == 0 && sec >= 24*3600:
		return fmt.Sprintf("%dd", sec/(24*3600))
	case sec%3600 == 0 && sec >= 3600:
		return fmt.Sprintf("%dh", sec/3600)
	case sec%60 == 0 && sec >= 60:
		return fmt.Sprintf("%dm", sec/60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}

// Validate checks structural constraints the executor relies on.
func (q *Query) Validate() error {
	if q.Measurement == "" {
		return fmt.Errorf("tsdb: query has no measurement")
	}
	if len(q.Fields) == 0 {
		return fmt.Errorf("tsdb: query selects no fields")
	}
	agg := q.Fields[0].Func != ""
	for _, f := range q.Fields {
		if (f.Func != "") != agg {
			return fmt.Errorf("tsdb: cannot mix raw and aggregated fields")
		}
		if f.Func != "" {
			if !IsAggregate(f.Func) {
				return fmt.Errorf("tsdb: unknown aggregate function %q", f.Func)
			}
		}
	}
	if q.GroupByTime > 0 && !agg {
		return fmt.Errorf("tsdb: GROUP BY time requires an aggregate function")
	}
	for _, c := range q.TagRegexps {
		if c.Re == nil {
			return fmt.Errorf("tsdb: regex predicate on %q has no pattern", c.Key)
		}
	}
	if q.GroupByTime < 0 {
		return fmt.Errorf("tsdb: negative GROUP BY time interval")
	}
	if q.Start > q.End {
		return fmt.Errorf("tsdb: query start after end")
	}
	if q.Limit < 0 {
		return fmt.Errorf("tsdb: negative LIMIT")
	}
	return nil
}
