package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixture tests drive each analyzer over a testdata package loaded under an
// impersonated import path (LoadFixture), in the style of
// x/tools/go/analysis/analysistest: `// want "regex"` comments in the
// fixture mark the diagnostics that must appear on that line, and the
// harness fails on both missing and unexpected findings. Diagnostics from
// the "allow" pseudo-analyzer anchor to directive comments, so they are
// asserted by substring instead.

var (
	loaderOnce sync.Once
	loaderInst *Loader
)

// testLoader returns the shared fixture loader. Sharing amortises the
// stdlib type-check across fixtures; tests must not run in parallel.
func testLoader() *Loader {
	loaderOnce.Do(func() { loaderInst = NewLoader("../..") })
	return loaderInst
}

func vetFixture(t *testing.T, dir, asPath string, analyzers []*Analyzer) Result {
	t.Helper()
	pkg, err := testLoader().LoadFixture(dir, asPath)
	if err != nil {
		t.Fatalf("LoadFixture(%s): %v", dir, err)
	}
	res, err := Vet([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	return res
}

var wantRe = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

// wantsOf parses the `// want "re" ["re" ...]` expectations per line.
func wantsOf(t *testing.T, file string) map[int][]*regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int][]*regexp.Regexp{}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range regexp.MustCompile(`"([^"]*)"`).FindAllStringSubmatch(m[1], -1) {
			re, err := regexp.Compile(q[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", file, i+1, q[1], err)
			}
			wants[i+1] = append(wants[i+1], re)
		}
	}
	return wants
}

// checkWants matches the non-"allow" diagnostics in file against its want
// comments, one to one per line.
func checkWants(t *testing.T, file string, res Result) {
	t.Helper()
	abs, err := filepath.Abs(file)
	if err != nil {
		t.Fatal(err)
	}
	wants := wantsOf(t, file)
	byLine := map[int][]Diagnostic{}
	for _, d := range res.Diagnostics {
		dabs, err := filepath.Abs(d.File)
		if err != nil {
			t.Fatal(err)
		}
		if d.Analyzer == "allow" || dabs != abs {
			continue
		}
		byLine[d.Line] = append(byLine[d.Line], d)
	}
	for line, res := range wants {
		got := byLine[line]
		if len(got) != len(res) {
			t.Errorf("%s:%d: want %d diagnostic(s), got %d: %v", file, line, len(res), len(got), got)
			continue
		}
		for _, re := range res {
			matched := false
			for _, d := range got {
				if re.MatchString(d.Message) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no diagnostic matches %q; got %v", file, line, re, got)
			}
		}
	}
	for line, got := range byLine {
		if _, expected := wants[line]; !expected {
			t.Errorf("%s:%d: unexpected diagnostic(s): %v", file, line, got)
		}
	}
}

func TestDetRangeFixture(t *testing.T) {
	res := vetFixture(t, "testdata/detrange", "repro/internal/core/fixture", []*Analyzer{DetRange})
	checkWants(t, "testdata/detrange/src.go", res)
}

// TestDetRangeOffPath loads the identical fixture under a non-deterministic
// import path: the analyzer must stay silent everywhere else in the tree.
func TestDetRangeOffPath(t *testing.T) {
	res := vetFixture(t, "testdata/detrange", "repro/internal/obs/fixture", []*Analyzer{DetRange})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("off-path package produced diagnostics: %v", res.Diagnostics)
	}
}

func TestRNGDisciplineFixture(t *testing.T) {
	res := vetFixture(t, "testdata/rngdiscipline", "repro/internal/fault/fixture", []*Analyzer{RNGDiscipline})
	checkWants(t, "testdata/rngdiscipline/src.go", res)
}

func TestRNGDisciplineOffPath(t *testing.T) {
	res := vetFixture(t, "testdata/rngdiscipline", "repro/internal/obs/fixture", []*Analyzer{RNGDiscipline})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("off-path package produced diagnostics: %v", res.Diagnostics)
	}
}

func TestWallClockFixture(t *testing.T) {
	res := vetFixture(t, "testdata/wallclock", "repro/internal/sim/fixture", []*Analyzer{WallClock})
	checkWants(t, "testdata/wallclock/src.go", res)

	var allowDiags []string
	for _, d := range res.Diagnostics {
		if d.Analyzer == "allow" {
			allowDiags = append(allowDiags, d.Message)
		}
	}
	if len(allowDiags) != 3 {
		t.Fatalf("want 3 malformed-suppression diagnostics, got %d: %v", len(allowDiags), allowDiags)
	}
	for _, frag := range []string{"bare //odrl:allow", "without a reason", "unknown analyzer nosuchanalyzer"} {
		found := false
		for _, msg := range allowDiags {
			if strings.Contains(msg, frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("no allow diagnostic contains %q: %v", frag, allowDiags)
		}
	}

	if len(res.Allows) != 2 {
		t.Fatalf("want 2 well-formed suppressions in the audit ledger, got %d: %v", len(res.Allows), res.Allows)
	}
	for _, a := range res.Allows {
		if a.Analyzer != "wallclock" || a.Reason == "" {
			t.Errorf("malformed ledger entry: %+v", a)
		}
	}
}

func TestHotpathAllocFixture(t *testing.T) {
	res := vetFixture(t, "testdata/hotpathalloc", "repro/internal/core/fixture", []*Analyzer{HotpathAlloc})
	checkWants(t, "testdata/hotpathalloc/src.go", res)
}

func TestGlobalStateFixture(t *testing.T) {
	res := vetFixture(t, "testdata/globalstate", "repro/internal/experiments/fixture", []*Analyzer{GlobalState})
	checkWants(t, "testdata/globalstate/src.go", res)
}

// TestGlobalStateOffPath loads the identical fixture under a
// non-deterministic import path: the analyzer must stay silent there.
func TestGlobalStateOffPath(t *testing.T) {
	res := vetFixture(t, "testdata/globalstate", "repro/internal/obs/fixture", []*Analyzer{GlobalState})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("off-path package produced diagnostics: %v", res.Diagnostics)
	}
}

// TestRepoClean runs the full suite over the real module: the tree must
// stay lint-clean and every suppression must carry a reason.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check")
	}
	pkgs, err := testLoader().Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Vet(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("unsuppressed: %s", d)
	}
	if len(res.Allows) == 0 {
		t.Error("expected a non-empty suppression ledger (telemetry wallclock probes)")
	}
	for _, a := range res.Allows {
		if a.Reason == "" {
			t.Errorf("ledger entry without reason: %+v", a)
		}
	}
}
