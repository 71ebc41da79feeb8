// Command monsterlint runs the project's static-analysis suite: the
// eight analyzers in internal/lint that enforce the engine's clock,
// snapshot, error-handling, context, lock-order, goroutine-lifetime,
// WAL-replay and stats-surface invariants. Lock copies are go vet's
// copylocks; `make lint` runs both.
//
// Usage:
//
//	monsterlint [-analyzers list] [patterns ...]
//
// Patterns default to ./... relative to the enclosing module.
//
// Exit status: 0 clean, 3 unsuppressed findings, 1 operational error —
// the same convention as x/tools' multichecker, so CI can distinguish
// "code has findings" from "the linter broke". Suppressed findings are
// printed, marked, and never fail the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"monster/internal/lint"
)

func main() {
	analyzers := flag.String("analyzers", "all", "comma-separated analyzer subset to run")
	flag.Parse()

	as, err := lint.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run("", patterns, as)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	unsuppressed := 0
	for _, f := range findings {
		fmt.Println(f)
		if !f.Suppressed {
			unsuppressed++
		}
	}
	if unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "monsterlint: %d unsuppressed finding(s)\n", unsuppressed)
		os.Exit(3)
	}
	if n := len(findings) - unsuppressed; n > 0 {
		fmt.Fprintf(os.Stderr, "monsterlint: clean (%d suppressed)\n", n)
	}
}
