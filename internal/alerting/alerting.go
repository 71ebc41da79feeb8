// Package alerting implements the failure-detection role Nagios plays
// in the paper's background (Section II-B — the authors wrote a
// Redfish plugin to feed Nagios from BMCs): threshold rules evaluated
// against the time-series database with consecutive-breach confirmation
// (flap damping) and a notification stream of state transitions.
// Unlike Nagios it needs no per-check configuration against the nodes —
// it reads the measurements MonSTer already collects.
package alerting

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"monster/internal/tsdb"
)

// Severity is an alert state.
type Severity int

// Severities, ordered.
const (
	SeverityOK Severity = iota
	SeverityWarning
	SeverityCritical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SeverityWarning:
		return "WARNING"
	case SeverityCritical:
		return "CRITICAL"
	default:
		return "OK"
	}
}

// Direction tells whether breaching means exceeding or undershooting
// the threshold.
type Direction int

// Directions.
const (
	Above Direction = iota // breach when value >= threshold
	Below                  // breach when value <= threshold
)

// Rule is one threshold check over a per-node metric.
type Rule struct {
	// Name identifies the rule in events, e.g. "cpu-temp".
	Name string
	// Measurement and Label select the series ("Thermal"/"CPU1Temp").
	Measurement string
	Label       string
	// Field is the value field; empty means "Reading".
	Field string
	// Warn and Crit are thresholds in metric units.
	Warn float64
	Crit float64
	// Direction selects the breach side. Above by default.
	Direction Direction
	// Confirmations is how many consecutive breaching evaluations are
	// required before raising (flap damping). Zero means 2.
	Confirmations int
}

func (r *Rule) normalize() error {
	if r.Name == "" || r.Measurement == "" {
		return fmt.Errorf("alerting: rule needs name and measurement")
	}
	if r.Field == "" {
		r.Field = "Reading"
	}
	if r.Confirmations <= 0 {
		r.Confirmations = 2
	}
	if r.Direction == Above && r.Crit < r.Warn {
		return fmt.Errorf("alerting: rule %s: crit %v below warn %v", r.Name, r.Crit, r.Warn)
	}
	if r.Direction == Below && r.Crit > r.Warn {
		return fmt.Errorf("alerting: rule %s: crit %v above warn %v", r.Name, r.Crit, r.Warn)
	}
	return nil
}

// severityOf classifies one value.
func (r *Rule) severityOf(v float64) Severity {
	switch r.Direction {
	case Below:
		if v <= r.Crit {
			return SeverityCritical
		}
		if v <= r.Warn {
			return SeverityWarning
		}
	default:
		if v >= r.Crit {
			return SeverityCritical
		}
		if v >= r.Warn {
			return SeverityWarning
		}
	}
	return SeverityOK
}

// DefaultRules covers the paper's Table I alerting surface: CPU and
// inlet temperature, fan failure, and node power.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "cpu1-temp", Measurement: "Thermal", Label: "CPU1Temp", Warn: 85, Crit: 95},
		{Name: "cpu2-temp", Measurement: "Thermal", Label: "CPU2Temp", Warn: 85, Crit: 95},
		{Name: "inlet-temp", Measurement: "Thermal", Label: "InletTemp", Warn: 38, Crit: 42},
		{Name: "fan1-stall", Measurement: "Thermal", Label: "FanSpeed1", Warn: 1500, Crit: 500, Direction: Below},
		{Name: "node-power", Measurement: "Power", Label: "NodePower", Warn: 450, Crit: 490},
	}
}

// Event is one state transition.
type Event struct {
	Time  time.Time
	Node  string
	Rule  string
	From  Severity
	To    Severity
	Value float64
}

// String renders the event Nagios-log style.
func (e Event) String() string {
	return fmt.Sprintf("%s %s/%s %s -> %s (value %.1f)",
		e.Time.UTC().Format(time.RFC3339), e.Node, e.Rule, e.From, e.To, e.Value)
}

type ruleState struct {
	current Severity
	pending Severity
	streak  int
}

// Engine evaluates rules against a DB on demand.
type Engine struct {
	db    *tsdb.DB
	rules []Rule

	mu     sync.Mutex
	states map[string]*ruleState // rule|node
	events []Event
	cap    int
}

// New creates an engine; rules are validated and normalized.
func New(db *tsdb.DB, rules []Rule) (*Engine, error) {
	e := &Engine{db: db, states: make(map[string]*ruleState), cap: 10000}
	for _, r := range rules {
		if err := r.normalize(); err != nil {
			return nil, err
		}
		e.rules = append(e.rules, r)
	}
	return e, nil
}

// Rules returns the normalized rule set.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, len(e.rules))
	copy(out, e.rules)
	return out
}

// Evaluate reads each rule's latest per-node value within the lookback
// window ending at now and advances the state machines. It returns the
// state-transition events raised by this evaluation.
func (e *Engine) Evaluate(now time.Time, lookback time.Duration) ([]Event, error) {
	if lookback <= 0 {
		lookback = 3 * time.Minute
	}
	var raised []Event
	for _, rule := range e.rules {
		stmt := fmt.Sprintf(
			`SELECT last(%q) FROM %q WHERE %s time >= %d AND time < %d GROUP BY "NodeId"`,
			rule.Field, rule.Measurement, labelCond(rule.Label), now.Add(-lookback).Unix(), now.Unix()+1)
		res, err := e.db.Query(stmt)
		if err != nil {
			return raised, fmt.Errorf("alerting: rule %s: %w", rule.Name, err)
		}
		for i := range res.Series {
			s := &res.Series[i]
			node, _ := s.Tags.Get("NodeId")
			last, ok := s.Value(0, 0)
			if !ok {
				continue
			}
			v, ok := last.AsFloat()
			if !ok {
				continue
			}
			if ev, fired := e.step(rule, node, v, now); fired {
				raised = append(raised, ev)
			}
		}
	}
	sort.Slice(raised, func(i, j int) bool {
		if raised[i].Node != raised[j].Node {
			return raised[i].Node < raised[j].Node
		}
		return raised[i].Rule < raised[j].Rule
	})
	e.mu.Lock()
	e.events = append(e.events, raised...)
	if len(e.events) > e.cap {
		e.events = e.events[len(e.events)-e.cap:]
	}
	e.mu.Unlock()
	return raised, nil
}

func labelCond(label string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf(`"Label" = '%s' AND`, label)
}

// step advances one (rule, node) state machine with a new observation.
// Escalations require `Confirmations` consecutive samples at (or above)
// the pending severity; recovery to a lower severity is immediate
// (Nagios-style: recover fast, alert carefully).
func (e *Engine) step(rule Rule, node string, v float64, now time.Time) (Event, bool) {
	sev := rule.severityOf(v)
	key := rule.Name + "|" + node
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.states[key]
	if !ok {
		st = &ruleState{}
		e.states[key] = st
	}
	if sev <= st.current {
		// De-escalation (or steady state): immediate.
		changed := sev < st.current
		from := st.current
		st.current = sev
		st.pending = sev
		st.streak = 0
		if changed {
			return Event{Time: now, Node: node, Rule: rule.Name, From: from, To: sev, Value: v}, true
		}
		return Event{}, false
	}
	// Escalation: confirm.
	if sev == st.pending {
		st.streak++
	} else {
		st.pending = sev
		st.streak = 1
	}
	if st.streak >= rule.Confirmations {
		from := st.current
		st.current = sev
		st.streak = 0
		return Event{Time: now, Node: node, Rule: rule.Name, From: from, To: sev, Value: v}, true
	}
	return Event{}, false
}

// State reports the current severity for a rule on a node.
func (e *Engine) State(rule, node string) Severity {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.states[rule+"|"+node]; ok {
		return st.current
	}
	return SeverityOK
}

// Active lists (node, rule) pairs currently above OK, sorted.
func (e *Engine) Active() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Event
	for key, st := range e.states {
		if st.current == SeverityOK {
			continue
		}
		var rule, node string
		for i := 0; i < len(key); i++ {
			if key[i] == '|' {
				rule, node = key[:i], key[i+1:]
				break
			}
		}
		out = append(out, Event{Node: node, Rule: rule, To: st.current})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// History returns the retained event log.
func (e *Engine) History() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}
