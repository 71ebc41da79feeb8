package lint

// The fixture harness is analysistest in miniature: each analyzer has
// a package under testdata/src/<name> whose source carries
// `// want "regex"` comments on the lines expected to be flagged
// (several quoted regexes on one line mean several findings). The
// harness runs the analyzer, then fails on any unexpected finding and
// any unmatched want — so the fixtures pin both the positives and the
// deliberate negatives (suppressions, exempt shapes).

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	fixLoader  *Loader
	loaderErr  error
)

// fixtureLoader shares one Loader (and thus one type-checked standard
// library) across every fixture test.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { fixLoader, loaderErr = NewLoader("") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return fixLoader
}

// runFixture loads testdata/src/<fixture> and runs the analyzers on it.
func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) ([]Finding, string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	l := fixtureLoader(t)
	pkgs, err := l.Load(dir)
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", fixture, len(pkgs))
	}
	findings, err := RunPackage(l, pkgs[0], analyzers)
	if err != nil {
		t.Fatalf("run %s: %v", fixture, err)
	}
	return findings, dir
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// loadWants collects `// want "..."` expectations, keyed by file:line.
func loadWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	out := make(map[string][]*want)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			key := fmt.Sprintf("%s:%d", name, i+1)
			for _, m := range wantQuoted.FindAllStringSubmatch(line[idx:], -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regex %q: %v", key, m[1], err)
				}
				out[key] = append(out[key], &want{re: re})
			}
		}
	}
	return out
}

// checkFixture runs analyzers over a fixture and diffs the findings
// against its want comments.
func checkFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	findings, dir := runFixture(t, fixture, analyzers...)
	wants := loadWants(t, dir)
	for _, f := range findings {
		if f.Suppressed {
			continue // suppressed findings are reported, not failed on
		}
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Position.Filename), f.Position.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: %s (%s)", key, f.Message, f.Analyzer)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing finding at %s matching %q", key, w.re)
			}
		}
	}
}

func TestClockDisciplineFixture(t *testing.T) { checkFixture(t, "clockdiscipline", ClockDiscipline) }
func TestViewMutateFixture(t *testing.T)      { checkFixture(t, "viewmutate", ViewMutate) }
func TestErrDropFixture(t *testing.T)         { checkFixture(t, "errdrop", ErrDrop) }
func TestCtxPropagateFixture(t *testing.T)    { checkFixture(t, "ctxpropagate", CtxPropagate) }
func TestLockOrderFixture(t *testing.T)       { checkFixture(t, "lockorder", LockOrder) }
func TestGoroutineLeakFixture(t *testing.T)   { checkFixture(t, "goroutineleak", GoroutineLeak) }
func TestWALExhaustiveFixture(t *testing.T)   { checkFixture(t, "walexhaustive", WALExhaustive) }
func TestStatsSurfaceFixture(t *testing.T)    { checkFixture(t, "statssurface", StatsSurface) }

// The storage engine is in ctxpropagate's scope: a query worker
// spawned without the consumer's context is flagged.
func TestCtxPropagateTsdbFixture(t *testing.T) { checkFixture(t, "ctxpropagatetsdb", CtxPropagate) }

// TestSuppressionDirectives pins the directive layer: a directive
// without a reason is itself a finding and suppresses nothing, while a
// well-formed analyzer list silences every listed analyzer at once.
func TestSuppressionDirectives(t *testing.T) {
	findings, _ := runFixture(t, "suppression", ErrDrop, ClockDiscipline)
	var malformed, errdrop, clockd, suppressed int
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			continue
		}
		switch f.Analyzer {
		case "suppression":
			malformed++
		case "errdrop":
			errdrop++
		case "clockdiscipline":
			clockd++
		default:
			t.Errorf("unexpected analyzer %q: %s", f.Analyzer, f)
		}
	}
	if malformed != 1 {
		t.Errorf("got %d malformed-directive findings, want 1", malformed)
	}
	// The malformed directive must not have suppressed the Close below
	// it; the listed directive must have silenced both analyzers.
	if errdrop != 1 {
		t.Errorf("got %d errdrop findings, want 1 (the Close under the malformed directive)", errdrop)
	}
	if clockd != 0 {
		t.Errorf("got %d clockdiscipline findings, want 0 (listed suppression)", clockd)
	}
	// The silenced findings are still reported, flagged Suppressed, so
	// driver and the stale audit can see them.
	if suppressed != 2 {
		t.Errorf("got %d suppressed findings, want 2 (errdrop+clockdiscipline under the listed directive)", suppressed)
	}
}

// TestByName pins the analyzer-selection surface the CLI exposes.
func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(all) = %d analyzers, err %v; want %d", len(all), err, len(All()))
	}
	two, err := ByName("errdrop, clockdiscipline")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset: got %d analyzers, err %v", len(two), err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should error")
	}
}
