package ingest

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"monster/internal/tsdb"
)

// RuleKind names a router transformation.
type RuleKind string

// Router rule kinds.
const (
	// RuleAddTag sets Key=Value on matching points (replacing an
	// existing value for Key).
	RuleAddTag RuleKind = "add_tag"
	// RuleRenameTag renames tag Key to Value on matching points.
	RuleRenameTag RuleKind = "rename_tag"
	// RuleDropTag removes tag Key from matching points.
	RuleDropTag RuleKind = "drop_tag"
	// RuleRenameMeasurement renames measurement Key to Value.
	RuleRenameMeasurement RuleKind = "rename_measurement"
	// RuleDrop discards matching points entirely.
	RuleDrop RuleKind = "drop"
	// RuleDerive emits an additional point OutMeasurement.OutField =
	// Scale*Field + Offset for each matching point carrying Field.
	RuleDerive RuleKind = "derive"
)

// Rule is one declarative router transformation, applied to every
// point flowing through the pipeline in rule order.
type Rule struct {
	Kind RuleKind
	// Match restricts the rule to points of this measurement; empty
	// matches every measurement. Matching happens against the point's
	// measurement as previous rules left it.
	Match string
	// Key/Value are the tag pair (add_tag), the old/new tag keys
	// (rename_tag), the tag key (drop_tag), or the old/new measurement
	// names (rename_measurement).
	Key   string
	Value string
	// Derive inputs: source field, linear transform, and output names.
	Field          string
	Scale          float64
	Offset         float64
	OutMeasurement string
	OutField       string
}

// Validate reports whether the rule is well formed.
func (r *Rule) Validate() error {
	switch r.Kind {
	case RuleAddTag, RuleRenameTag:
		if r.Key == "" || r.Value == "" {
			return fmt.Errorf("ingest: %s rule needs key and value", r.Kind)
		}
	case RuleDropTag:
		if r.Key == "" {
			return fmt.Errorf("ingest: drop_tag rule needs a tag key")
		}
	case RuleRenameMeasurement:
		if r.Key == "" || r.Value == "" {
			return fmt.Errorf("ingest: rename_measurement rule needs old and new names")
		}
	case RuleDrop:
		if r.Match == "" {
			return fmt.Errorf("ingest: drop rule needs a measurement match")
		}
	case RuleDerive:
		if r.Match == "" || r.Field == "" || r.OutMeasurement == "" || r.OutField == "" {
			return fmt.Errorf("ingest: derive rule needs measurement, field, and output names")
		}
	default:
		return fmt.Errorf("ingest: unknown rule kind %q", r.Kind)
	}
	return nil
}

// String renders the rule in the textual form ParseRule accepts.
func (r *Rule) String() string {
	suffix := ""
	if r.Match != "" && r.Kind != RuleDrop && r.Kind != RuleDerive {
		suffix = "@" + r.Match
	}
	switch r.Kind {
	case RuleAddTag, RuleRenameTag:
		return fmt.Sprintf("%s:%s=%s%s", r.Kind, r.Key, r.Value, suffix)
	case RuleDropTag:
		return fmt.Sprintf("%s:%s%s", r.Kind, r.Key, suffix)
	case RuleRenameMeasurement:
		return fmt.Sprintf("%s:%s=%s", r.Kind, r.Key, r.Value)
	case RuleDrop:
		return fmt.Sprintf("%s:%s", r.Kind, r.Match)
	case RuleDerive:
		s := fmt.Sprintf("%s:%s.%s=%s.%s*%g", r.Kind, r.OutMeasurement, r.OutField, r.Match, r.Field, r.Scale)
		if r.Offset != 0 {
			s += fmt.Sprintf("%+g", r.Offset)
		}
		return s
	default:
		return string(r.Kind)
	}
}

// ParseRule parses the textual rule forms used by monsterd's -route
// flag and the examples:
//
//	add_tag:cluster=quanah           set a tag on every point
//	add_tag:rack=r1@Power            ... only on measurement Power
//	rename_tag:host=NodeId           rename a tag key
//	drop_tag:debug                   remove a tag
//	rename_measurement:node_power=Power
//	drop:Scratch                     discard a measurement entirely
//	derive:PowerKW.Reading=Power.Reading*0.001
//	derive:InletF.Reading=Thermal.Reading*1.8+32
func ParseRule(s string) (Rule, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Rule{}, fmt.Errorf("ingest: rule %q: want kind:spec", s)
	}
	r := Rule{Kind: RuleKind(kind)}
	// The optional @measurement suffix scopes tag rules.
	if r.Kind == RuleAddTag || r.Kind == RuleRenameTag || r.Kind == RuleDropTag {
		if body, match, found := strings.Cut(rest, "@"); found {
			rest, r.Match = body, match
		}
	}
	switch r.Kind {
	case RuleAddTag, RuleRenameTag, RuleRenameMeasurement:
		k, v, found := strings.Cut(rest, "=")
		if !found {
			return Rule{}, fmt.Errorf("ingest: rule %q: want %s:old=new", s, kind)
		}
		r.Key, r.Value = k, v
	case RuleDropTag:
		r.Key = rest
	case RuleDrop:
		r.Match = rest
	case RuleDerive:
		out, src, found := strings.Cut(rest, "=")
		if !found {
			return Rule{}, fmt.Errorf("ingest: rule %q: want derive:Out.Field=Meas.Field*scale[+offset]", s)
		}
		if r.OutMeasurement, r.OutField, found = strings.Cut(out, "."); !found {
			return Rule{}, fmt.Errorf("ingest: rule %q: output %q wants Measurement.Field", s, out)
		}
		expr := src
		src, scalePart, found := strings.Cut(expr, "*")
		if !found {
			return Rule{}, fmt.Errorf("ingest: rule %q: want source*scale", s)
		}
		if r.Match, r.Field, found = strings.Cut(src, "."); !found {
			return Rule{}, fmt.Errorf("ingest: rule %q: source %q wants Measurement.Field", s, src)
		}
		// scale[+offset] / scale[-offset]; the sign splits the terms.
		offIdx := -1
		for i := 1; i < len(scalePart); i++ {
			if (scalePart[i] == '+' || scalePart[i] == '-') && scalePart[i-1] != 'e' && scalePart[i-1] != 'E' {
				offIdx = i
				break
			}
		}
		offsetPart := ""
		if offIdx >= 0 {
			scalePart, offsetPart = scalePart[:offIdx], scalePart[offIdx:]
		}
		var err error
		if r.Scale, err = strconv.ParseFloat(scalePart, 64); err != nil {
			return Rule{}, fmt.Errorf("ingest: rule %q: bad scale %q", s, scalePart)
		}
		if offsetPart != "" {
			if r.Offset, err = strconv.ParseFloat(offsetPart, 64); err != nil {
				return Rule{}, fmt.Errorf("ingest: rule %q: bad offset %q", s, offsetPart)
			}
		}
	default:
		return Rule{}, fmt.Errorf("ingest: unknown rule kind %q", kind)
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// ParseRules parses a list of textual rules.
func ParseRules(specs []string) ([]Rule, error) {
	rules := make([]Rule, 0, len(specs))
	for _, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// router applies the rule chain to every point and keeps exact
// counters. It is stateless per point and safe for concurrent use:
// every producer routes its own batches in its own goroutine.
type router struct {
	rules []Rule

	pointsIn      atomic.Int64
	pointsOut     atomic.Int64
	pointsDropped atomic.Int64
	rulesApplied  atomic.Int64
	derived       atomic.Int64
}

func newRouter(rules []Rule) (*router, error) {
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return &router{rules: rules}, nil
}

// process applies the rule chain to a batch. With no rules configured
// the input batch is passed through untouched — the default pipeline
// adds zero per-point cost over the classic collector path.
func (rt *router) process(points []tsdb.Point) []tsdb.Point {
	rt.pointsIn.Add(int64(len(points)))
	if len(rt.rules) == 0 {
		rt.pointsOut.Add(int64(len(points)))
		return points
	}
	out := make([]tsdb.Point, 0, len(points))
	for i := range points {
		p := points[i] // shallow copy; tags copied on first mutation
		tagsShared := true
		dropped := false
		for ri := range rt.rules {
			r := &rt.rules[ri]
			switch r.Kind {
			case RuleAddTag:
				if r.Match != "" && p.Measurement != r.Match {
					continue
				}
				if !tagsShared {
					p.Tags = setTag(p.Tags, r.Key, r.Value)
				} else {
					p.Tags = setTag(copyTags(p.Tags), r.Key, r.Value)
					tagsShared = false
				}
				rt.rulesApplied.Add(1)
			case RuleRenameTag:
				if r.Match != "" && p.Measurement != r.Match {
					continue
				}
				if _, ok := p.Tags.Get(r.Key); !ok {
					continue
				}
				if tagsShared {
					p.Tags = copyTags(p.Tags)
					tagsShared = false
				}
				for ti := range p.Tags {
					if p.Tags[ti].Key == r.Key {
						p.Tags[ti].Key = r.Value
					}
				}
				rt.rulesApplied.Add(1)
			case RuleDropTag:
				if r.Match != "" && p.Measurement != r.Match {
					continue
				}
				if _, ok := p.Tags.Get(r.Key); !ok {
					continue
				}
				kept := make(tsdb.Tags, 0, len(p.Tags)-1)
				for _, t := range p.Tags {
					if t.Key != r.Key {
						kept = append(kept, t)
					}
				}
				p.Tags = kept
				tagsShared = false
				rt.rulesApplied.Add(1)
			case RuleRenameMeasurement:
				if p.Measurement != r.Key {
					continue
				}
				p.Measurement = r.Value
				rt.rulesApplied.Add(1)
			case RuleDrop:
				if p.Measurement != r.Match {
					continue
				}
				dropped = true
				rt.rulesApplied.Add(1)
			case RuleDerive:
				if p.Measurement != r.Match {
					continue
				}
				v, ok := p.Fields[r.Field]
				if !ok {
					continue
				}
				f, ok := v.AsFloat()
				if !ok {
					continue
				}
				out = append(out, tsdb.Point{
					Measurement: r.OutMeasurement,
					Tags:        p.Tags,
					Fields:      map[string]tsdb.Value{r.OutField: tsdb.Float(r.Scale*f + r.Offset)},
					Time:        p.Time,
				})
				rt.rulesApplied.Add(1)
				rt.derived.Add(1)
				// The derived point shares p's tag slice: force the next
				// tag-mutating rule to copy again rather than mutate it.
				tagsShared = true
			}
			if dropped {
				break
			}
		}
		if dropped {
			rt.pointsDropped.Add(1)
			continue
		}
		out = append(out, p)
	}
	rt.pointsOut.Add(int64(len(out)))
	return out
}

func copyTags(ts tsdb.Tags) tsdb.Tags {
	out := make(tsdb.Tags, len(ts))
	copy(out, ts)
	return out
}

func setTag(ts tsdb.Tags, key, value string) tsdb.Tags {
	for i := range ts {
		if ts[i].Key == key {
			ts[i].Value = value
			return ts
		}
	}
	return append(ts, tsdb.Tag{Key: key, Value: value})
}
