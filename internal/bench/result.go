package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// Env records where a result file was measured, so two files are only
// compared knowingly across hosts or toolchains.
type Env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seconds    float64 `json:"seconds,omitempty"`
	Ops        int     `json:"ops,omitempty"`
}

// CurrentEnv describes this process. The commit is "unknown" outside a
// git work tree (the acceptance driver runs from an exported copy) and
// carries "-dirty" when the tree has uncommitted changes.
func CurrentEnv() Env {
	env := Env{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			env.Commit += "-dirty"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// File is a set of runs with their environment: what -out writes,
// what -compare reads, and the format of baseline.json.
type File struct {
	Env     Env         `json:"env"`
	Runs    []RunResult `json:"runs"`
	Summary []Row       `json:"summary"`
}

// Row summarises one metric of one workload over the file's runs.
type Row struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	MetricDef
	N int `json:"n"`
	Quartiles
}

// Summarize rebuilds the per-(workload, metric) rows from the runs:
// end-to-end metrics from untraced runs, per-layer metrics from traced
// ones, each in table order.
func (f *File) Summarize() {
	f.Summary = nil
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			defs := EndToEnd
			if traced {
				defs = PerLayer
			}
			for _, d := range defs {
				if vals := f.values(w.Name, traced, d.Name); len(vals) > 0 {
					f.Summary = append(f.Summary, Row{w.Name, traced, d, len(vals), Summarize(vals)})
				}
			}
		}
	}
}

// values returns a metric's per-run values for one workload, in run
// order.
func (f *File) values(workload string, traced bool, metric string) []float64 {
	var vals []float64
	for _, run := range f.Runs {
		if run.Workload == workload && run.Trace == traced {
			if v, ok := run.Metrics[metric]; ok {
				vals = append(vals, v)
			}
		}
	}
	return vals
}

// WriteFile writes the file as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a result file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Print writes the summary as a table, then each traced workload's
// layer shares with the unaccounted remainder.
func (f *File) Print(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian\tq1\tq3\tspread\tbound")
	for _, r := range f.Summary {
		bound := ""
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t%s\n",
			r.Workload, r.Name, r.Unit, r.N, r.Median, r.Q1, r.Q3, 100*r.Spread(), bound)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, run := range f.Runs {
		if len(run.Shares) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s seed %d: layer shares of the median operation\n", run.Workload, run.Seed)
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		for _, s := range run.Shares {
			fmt.Fprintf(tw, "  %s\t%.3f ms\t%.1f%%\n", s.Layer, s.Ms, 100*s.Share)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	for _, run := range f.Runs {
		for _, e := range run.Errors {
			fmt.Fprintf(w, "FAILED %s seed %d: %s\n", run.Workload, run.Seed, e)
		}
	}
	return nil
}

// Aggregate folds the file's runs of one workload and mode into one
// RunResult holding the median of every metric — what the contract
// line reports when -repeat is above one.
func (f *File) Aggregate(workload string, traced bool) *RunResult {
	agg := &RunResult{Workload: workload, Trace: traced, Metrics: make(map[string]float64)}
	for _, run := range f.Runs {
		if run.Workload == workload && run.Trace == traced {
			agg.Seed = run.Seed
			agg.Attempted += run.Attempted
			agg.Failed += run.Failed
			agg.Samples += run.Samples
		}
	}
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if vals := f.values(workload, traced, d.Name); len(vals) > 0 {
				agg.Metrics[d.Name] = Median(vals)
			}
		}
	}
	return agg
}
