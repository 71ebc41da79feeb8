package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of a comparison.
const (
	Unchanged  = "unchanged"
	Improved   = "improved"
	Regression = "REGRESSION"
	Unresolved = "unresolved"
	Info       = "-" // per-layer metrics explain, they are not judged
)

// Comparison is one (workload, metric) row of base against change.
type Comparison struct {
	Workload string
	MetricDef
	Base, Change Quartiles
	// Worse is how much worse the change's median is than the base's,
	// as a share of the base's; negative means better.
	Worse float64
	// Wins counts the run pairs (i-th base run against i-th change run)
	// in which the change was better; ties count for neither side.
	Wins, Losses, Pairs int
	Verdict             string
}

// better reports whether a is better than b for the metric.
func (d MetricDef) better(a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

// Compare judges every end-to-end metric of every workload both files
// ran, and lists the per-layer metrics beside them unjudged.
//
//   - unresolved: either side's own interquartile spread exceeds the
//     bound, so the bound cannot be tested — never reported as unchanged;
//   - REGRESSION: the change's median is worse than the base's by more
//     than the bound;
//   - improved: the change wins at least nine tenths of the run pairs
//     and the medians differ by more than the base's own interquartile
//     range;
//   - unchanged: anything else.
func Compare(base, change *File) []Comparison {
	var out []Comparison
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			defs := EndToEnd
			if traced {
				defs = PerLayer
			}
			for _, d := range defs {
				a, b := base.values(w.Name, traced, d.Name), change.values(w.Name, traced, d.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				c := Comparison{Workload: w.Name, MetricDef: d, Base: Summarize(a), Change: Summarize(b), Verdict: Info}
				if c.Base.Median != 0 {
					c.Worse = (c.Change.Median - c.Base.Median) / c.Base.Median
					if d.Better == "higher" {
						c.Worse = -c.Worse
					}
				}
				for i := 0; i < len(a) && i < len(b); i++ {
					c.Pairs++
					switch {
					case d.better(b[i], a[i]):
						c.Wins++
					case d.better(a[i], b[i]):
						c.Losses++
					}
				}
				if !traced {
					c.Verdict = verdict(c)
				}
				out = append(out, c)
			}
		}
	}
	return out
}

func verdict(c Comparison) string {
	diff := c.Change.Median - c.Base.Median
	if diff < 0 {
		diff = -diff
	}
	switch {
	case c.Base.Spread() > c.Bound || c.Change.Spread() > c.Bound:
		return Unresolved
	case c.Worse > c.Bound:
		return Regression
	case c.Worse < 0 && 10*c.Wins >= 9*c.Pairs && diff > c.Base.Q3-c.Base.Q1:
		return Improved
	}
	return Unchanged
}

// PrintComparison writes one row per (workload, metric) and returns how
// many regressions and unresolved metrics there were.
func PrintComparison(w io.Writer, rows []Comparison) (regressions, unresolved int, err error) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tchange\tworse by\tbound\tspread b/c\twins\tverdict")
	for _, c := range rows {
		bound := ""
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*c.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%s\t%.1f%%/%.1f%%\t%d/%d\t%s\n",
			c.Workload, c.Name, c.Unit, c.Base.Median, c.Change.Median, 100*c.Worse, bound,
			100*c.Base.Spread(), 100*c.Change.Spread(), c.Wins, c.Pairs, c.Verdict)
		switch c.Verdict {
		case Regression:
			regressions++
		case Unresolved:
			unresolved++
		}
	}
	return regressions, unresolved, tw.Flush()
}
