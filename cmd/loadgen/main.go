// Command loadgen is MonSTer's end-to-end and per-layer benchmark: it
// builds the reference deployment in-process, runs one workload against
// it, checks every answer against a seeded oracle, and prints every
// metric by name and unit. See internal/bench/README.md.
//
//	go run ./cmd/loadgen -workload scan-72h -seed 1 -seconds 10
//	go run ./cmd/loadgen -workload all -repeat 5 -trace both -out new.json
//	go run ./cmd/loadgen -compare internal/bench/baseline.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
package main

import (
	"flag"
	"fmt"
	"os"

	"monster/internal/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: collect, dash-6h, scan-72h, mixed-live, or all")
		seed     = flag.Int64("seed", 1, "dataset and request seed")
		seconds  = flag.Float64("seconds", bench.RunSeconds, "length of the measured window")
		ops      = flag.Int("ops", 0, "measure exactly this many operations instead of -seconds (counts then repeat exactly)")
		trace    = flag.String("trace", "0", "0 = end-to-end run, 1 = traced per-layer run, both = one after the other")
		repeat   = flag.Int("repeat", 1, "runs per workload and mode; medians and quartiles are reported")
		out      = flag.String("out", "", "write every run and the summary to this JSON file")
		dir      = flag.String("dir", ".loadgen", "scratch directory for WAL, cold segments and span files")
		compare  = flag.Bool("compare", false, "compare two result files: loadgen -compare base.json change.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()
	if *manifest {
		if _, err := os.Stdout.Write(bench.ManifestJSON()); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatalf("-trace wants 0, 1 or both, got %q", *trace)
	}
	var names []string
	for _, w := range bench.Workloads() {
		if *workload == w.Name || *workload == "all" {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatalf("unknown -workload %q", *workload)
	}
	if *repeat < 1 {
		fatalf("-repeat must be at least 1")
	}

	env := bench.CurrentEnv()
	env.Seconds, env.Ops = *seconds, *ops
	file := &bench.File{Env: env}
	for _, name := range names {
		for _, traced := range modes {
			for i := 0; i < *repeat; i++ {
				res, err := bench.Run(bench.Options{
					Workload: name, Seed: *seed, Seconds: *seconds, Ops: *ops,
					Trace: traced, Dir: *dir, Log: os.Stderr,
				})
				if err != nil {
					fatalf("%v", err)
				}
				file.Runs = append(file.Runs, *res)
			}
		}
	}
	file.Summarize()
	if err := file.Print(os.Stderr); err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		if err := file.WriteFile(*out); err != nil {
			fatalf("%v", err)
		}
	}

	// The contract line: the last workload run, in the first mode asked for.
	line, err := file.Aggregate(names[len(names)-1], modes[0]).ContractLine()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fatalf("-compare wants two result files")
	}
	base, err := bench.ReadFile(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	change, err := bench.ReadFile(args[1])
	if err != nil {
		fatalf("%v", err)
	}
	if base.Env != change.Env {
		fmt.Printf("note: environments differ\n  base   %+v\n  change %+v\n", base.Env, change.Env)
	}
	regressions, unresolved, err := bench.PrintComparison(os.Stdout, bench.Compare(base, change))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(2)
}
