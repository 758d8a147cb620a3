package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func testRecord(id, tool string) Record {
	return Record{
		Schema: Schema,
		ID:     id,
		Tool:   tool,
		Start:  "2026-01-02T03:04:05Z",
		WallS:  1.25,
		Host:   obsHost{HostCPUs: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"},
		Scenarios: []ScenarioRef{
			{Experiment: "T1", SpecHash: "abc123def456", EngineVersion: "odrl-scenario-v1"},
		},
		Runs: []RunSummary{{
			Controller: "od-rl",
			Workload:   "mixed",
			Seed:       7,
			Cores:      64,
			BudgetW:    90,
			Epochs:     500,
			Metrics:    map[string]float64{"bips": 42.5, "over_j": 1.5, "decide_p99_ns": 8000},
		}},
		Status: StatusOK,
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecord("20260102T030405-aaaaaaaaaa", "odrl-run")
	if err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	recs, errs := Read(dir)
	if len(errs) > 0 {
		t.Fatalf("read errors: %v", errs)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	got := recs[0]
	if got.ID != want.ID || got.Tool != want.Tool || got.Runs[0].Metrics["bips"] != 42.5 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Hash == "" {
		t.Fatal("appended record has no content hash")
	}
	if err := got.VerifyHash(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord("20260102T030405-bbbbbbbbbb", "odrl")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), "42.5", "99.9", 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(l.Path(), []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, errs := Read(dir)
	if len(recs) != 0 {
		t.Fatalf("tampered record accepted: %+v", recs)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "hash mismatch") {
		t.Fatalf("want one hash-mismatch error, got %v", errs)
	}
}

// TestLedgerConcurrentWriters is the race hammer CI runs with -race: many
// goroutines append to one ledger file through separate handles and every
// line must come out whole and verifiable.
func TestLedgerConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers = 16
	const perWriter = 25
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l, err := Open(dir)
			if err != nil {
				errc <- err
				return
			}
			for i := 0; i < perWriter; i++ {
				r := testRecord(fmt.Sprintf("20260102T030405-w%02di%03d", w, i), "odrl-sweep")
				if err := l.Append(r); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	recs, errs := Read(dir)
	if len(errs) > 0 {
		t.Fatalf("interleaved/corrupt lines after concurrent append: %v", errs)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(recs), writers*perWriter)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate record id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestFilterAndLatest(t *testing.T) {
	a := testRecord("20260102T030405-aaaaaaaaaa", "odrl-run")
	b := testRecord("20260102T030406-bbbbbbbbbb", "odrl-bench")
	b.Scenarios[0].Experiment = "F18"
	b.Scenarios[0].SpecHash = "feedbeef0123"
	c := testRecord("20260102T030407-cccccccccc", "odrl-run")
	c.Status = StatusFailed
	c.Error = "boom"
	recs := []Record{a, b, c}

	if got := Select(recs, Filter{Tool: "odrl-run"}); len(got) != 2 {
		t.Fatalf("tool filter: got %d, want 2", len(got))
	}
	if got := Select(recs, Filter{Experiment: "F18"}); len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("experiment filter: %+v", got)
	}
	if got := Select(recs, Filter{SpecHash: "feedbeef"}); len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("spec-hash prefix filter: %+v", got)
	}
	if got := Select(recs, Filter{Status: StatusFailed}); len(got) != 1 || got[0].ID != c.ID {
		t.Fatalf("status filter: %+v", got)
	}
	last, ok := Latest(recs, Filter{Tool: "odrl-run", Status: StatusOK})
	if !ok || last.ID != a.ID {
		t.Fatalf("latest: got %v %v", last.ID, ok)
	}
}

func TestByIDPrefix(t *testing.T) {
	recs := []Record{
		testRecord("20260102T030405-aaaaaaaaaa", "odrl"),
		testRecord("20260102T030406-bbbbbbbbbb", "odrl"),
	}
	if r, err := ByID(recs, "20260102T030405"); err != nil || r.ID != recs[0].ID {
		t.Fatalf("unique prefix: %v %v", r.ID, err)
	}
	if _, err := ByID(recs, "20260102T03040"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous prefix not rejected: %v", err)
	}
	if _, err := ByID(recs, "nope"); err == nil {
		t.Fatal("unknown id not rejected")
	}
}

func TestBaselinePin(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadBaseline(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	want := Baseline{ID: "20260102T030405-aaaaaaaaaa", PinnedAt: "2026-01-03T00:00:00Z"}
	if err := WriteBaseline(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadBaseline(dir)
	if err != nil || !ok || got.ID != want.ID {
		t.Fatalf("baseline round-trip: %+v ok=%v err=%v", got, ok, err)
	}
}

func TestWriteArtifact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := l.WriteArtifact("run1", "flight/epochs.jsonl", []byte("line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if art.Bytes != 5 || art.SHA256 == "" {
		t.Fatalf("artifact stamp: %+v", art)
	}
	data, err := os.ReadFile(filepath.Join(dir, RunsDirName, "run1", "flight", "epochs.jsonl"))
	if err != nil || string(data) != "line\n" {
		t.Fatalf("artifact content: %q %v", data, err)
	}
}

func TestNewIDSortableAndUnique(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID(t0)
		if !strings.HasPrefix(id, "20260102T030405-") {
			t.Fatalf("id %q lacks sortable timestamp prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	later := NewID(t0.Add(2 * time.Second))
	if !(NewID(t0) < later) {
		t.Fatal("ids not chronologically sortable")
	}
}

func TestValidateRejectsDefects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"no schema", func(r *Record) { r.Schema = 0 }},
		{"no id", func(r *Record) { r.ID = "" }},
		{"no tool", func(r *Record) { r.Tool = "" }},
		{"no start", func(r *Record) { r.Start = "" }},
		{"negative wall", func(r *Record) { r.WallS = -1 }},
		{"bad status", func(r *Record) { r.Status = "maybe" }},
		{"failed without error", func(r *Record) { r.Status = StatusFailed; r.Error = "" }},
		{"negative epochs", func(r *Record) { r.Runs[0].Epochs = -1 }},
		{"unnamed artifact", func(r *Record) { r.Artifacts = []Artifact{{}} }},
	}
	for _, tc := range cases {
		r := testRecord("20260102T030405-aaaaaaaaaa", "odrl")
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: defect not rejected", tc.name)
		}
	}
}

func TestCompare(t *testing.T) {
	base := testRecord("20260102T030405-aaaaaaaaaa", "odrl-run")
	cand := testRecord("20260102T030406-bbbbbbbbbb", "odrl-run")

	t.Run("identical runs: zero regressions", func(t *testing.T) {
		deltas, notes := Compare(base, cand, CompareOptions{Threshold: 0.05})
		if len(notes) != 0 {
			t.Fatalf("unexpected notes: %v", notes)
		}
		if regs := Regressions(deltas); len(regs) != 0 {
			t.Fatalf("identical runs regressed: %v", regs)
		}
	})

	t.Run("seeded bips slowdown regresses", func(t *testing.T) {
		slow := cand
		slow.Runs = []RunSummary{cand.Runs[0]}
		slow.Runs[0].Metrics = map[string]float64{"bips": 42.5 * 0.8, "over_j": 1.5}
		deltas, _ := Compare(base, slow, CompareOptions{Threshold: 0.05})
		regs := Regressions(deltas)
		if len(regs) != 1 || regs[0].Metric != "bips" {
			t.Fatalf("want one bips regression, got %v", regs)
		}
	})

	t.Run("wall-clock metrics excluded by default", func(t *testing.T) {
		slow := cand
		slow.Runs = []RunSummary{cand.Runs[0]}
		slow.Runs[0].Metrics = map[string]float64{"bips": 42.5, "decide_p99_ns": 80000}
		deltas, _ := Compare(base, slow, CompareOptions{Threshold: 0.05})
		if regs := Regressions(deltas); len(regs) != 0 {
			t.Fatalf("wall-clock metric judged without opt-in: %v", regs)
		}
		deltas, _ = Compare(base, slow, CompareOptions{Threshold: 0.05, WallClock: true})
		regs := Regressions(deltas)
		if len(regs) != 1 || regs[0].Metric != "decide_p99_ns" {
			t.Fatalf("wall-clock opt-in: want decide_p99_ns regression, got %v", regs)
		}
	})

	t.Run("lower-better metric regresses upward", func(t *testing.T) {
		worse := cand
		worse.Runs = []RunSummary{cand.Runs[0]}
		worse.Runs[0].Metrics = map[string]float64{"over_j": 3.0}
		deltas, _ := Compare(base, worse, CompareOptions{Threshold: 0.05})
		regs := Regressions(deltas)
		if len(regs) != 1 || regs[0].Metric != "over_j" {
			t.Fatalf("want over_j regression, got %v", regs)
		}
	})

	t.Run("unmatched runs noted", func(t *testing.T) {
		extra := cand
		extra.Runs = append([]RunSummary{}, cand.Runs...)
		other := cand.Runs[0]
		other.Controller = "greedy"
		extra.Runs = append(extra.Runs, other)
		_, notes := Compare(base, extra, CompareOptions{Threshold: 0.05})
		if len(notes) != 1 || !strings.Contains(notes[0], "only in candidate") {
			t.Fatalf("notes: %v", notes)
		}
	})
}

// TestCompareSweepRunsPairOneToOne: runs that differ only in fault plan
// (an F18 intensity sweep) or only in budget (an F7 budget sweep) must
// each pair with their own baseline run, not all with the baseline's last
// one. Every candidate run here equals its baseline counterpart, so any
// cross-pairing shows up as a bips delta.
func TestCompareSweepRunsPairOneToOne(t *testing.T) {
	var runs []RunSummary
	for i, plan := range []string{"", "0d1e2f3a4b5c", "5c4b3a2f1e0d", "a1b2c3d4e5f6"} {
		runs = append(runs, RunSummary{
			Controller: "od-rl", Workload: "mix", Seed: 1, Cores: 64, BudgetW: 55,
			FaultPlan: plan, Epochs: 500,
			Metrics: map[string]float64{"bips": 40 - float64(i)},
		})
	}
	for i, budget := range []float64{40, 70, 85} {
		runs = append(runs, RunSummary{
			Controller: "od-rl", Workload: "mix", Seed: 1, Cores: 64, BudgetW: budget,
			Epochs: 500, Metrics: map[string]float64{"bips": 30 + float64(i)},
		})
	}
	base := testRecord("20260102T030405-aaaaaaaaaa", "odrl-bench")
	cand := testRecord("20260102T030406-bbbbbbbbbb", "odrl-bench")
	base.Runs, cand.Runs = runs, runs

	deltas, notes := Compare(base, cand, CompareOptions{Threshold: 0.05})
	if len(notes) != 0 {
		t.Fatalf("unexpected notes: %v", notes)
	}
	keys := map[string]bool{}
	for _, d := range deltas {
		keys[d.RunKey] = true
		if d.Base != d.Cand {
			t.Errorf("run %s paired with another run: %s %v -> %v", d.RunKey, d.Metric, d.Base, d.Cand)
		}
	}
	if len(keys) != len(runs) {
		t.Fatalf("%d runs paired under %d keys, want one key each: %v", len(runs), len(keys), keys)
	}

	// A fault-free run's key has no plan part, so it matches records
	// written before run summaries carried the plan.
	if k := runs[0].Key(); k != "od-rl|mix|1|64|55" {
		t.Fatalf("fault-free key = %q", k)
	}
}

// TestCompareLegacySweepNotCrossPaired: a record written before runs
// carried their fault plan gives all four runs of a fault-intensity sweep
// one key. Diffed against a record that names the plans, the fault-free
// candidate run must not pair with whichever faulted baseline run came
// last; the shared key is noted as ambiguous and nothing is compared.
func TestCompareLegacySweepNotCrossPaired(t *testing.T) {
	var legacy, current []RunSummary
	for i, plan := range []string{"", "0d1e2f3a4b5c", "5c4b3a2f1e0d", "a1b2c3d4e5f6"} {
		s := RunSummary{
			Controller: "od-rl", Workload: "mix", Seed: 1, Cores: 64, BudgetW: 55,
			Epochs: 500, Faults: 10 * i,
			Metrics: map[string]float64{"bips": 40 - float64(i)},
		}
		legacy = append(legacy, s)
		s.FaultPlan = plan
		current = append(current, s)
	}
	base := testRecord("20260102T030405-aaaaaaaaaa", "odrl-run")
	cand := testRecord("20260102T030406-bbbbbbbbbb", "odrl-run")
	base.Runs, cand.Runs = legacy, current

	for _, dir := range []struct {
		name       string
		base, cand Record
	}{{"legacy baseline", base, cand}, {"legacy candidate", cand, base}} {
		deltas, notes := Compare(dir.base, dir.cand, CompareOptions{Threshold: 0.05})
		if len(deltas) != 0 {
			t.Errorf("%s: %d deltas from cross-paired runs, first %v", dir.name, len(deltas), deltas[0])
		}
		ambiguous := 0
		for _, n := range notes {
			if strings.Contains(n, "ambiguous") {
				ambiguous++
				if !strings.Contains(n, "od-rl|mix|1|64|55 ") {
					t.Errorf("%s: ambiguous note names the wrong key: %s", dir.name, n)
				}
			}
		}
		// One ambiguous shared key, three faulted runs on the named side.
		if ambiguous != 1 || len(notes) != 4 {
			t.Errorf("%s: notes %v, want 1 ambiguous + 3 one-sided", dir.name, notes)
		}
	}
}

// FuzzRunRecord round-trips arbitrary records through MarshalLine /
// DecodeRecord: anything the writer accepts, the reader must reproduce
// exactly (wired into make fuzz-smoke).
func FuzzRunRecord(f *testing.F) {
	f.Add("odrl-run", "T1", "abc123", 1.5, uint64(7), 500, 42.5, true)
	f.Add("odrl-bench", "", "", 0.0, uint64(0), 0, -1.0, false)
	f.Add("odrl", "F18", strings.Repeat("f", 64), 1e9, ^uint64(0), 1<<30, 1e300, true)
	f.Fuzz(func(t *testing.T, tool, exp, hash string, wallS float64, seed uint64, epochs int, bips float64, ok bool) {
		r := Record{
			Schema: Schema,
			ID:     "20260102T030405-fuzzfuzzfu",
			Tool:   tool,
			Start:  "2026-01-02T03:04:05Z",
			WallS:  wallS,
			Host:   obsHost{HostCPUs: 1, GOMAXPROCS: 1, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"},
			Runs:   []RunSummary{{Controller: "od-rl", Seed: seed, Epochs: epochs, Metrics: map[string]float64{"bips": bips}}},
			Status: StatusOK,
		}
		if exp != "" || hash != "" {
			r.Scenarios = []ScenarioRef{{Experiment: exp, SpecHash: hash}}
		}
		if !ok {
			r.Status = StatusFailed
			r.Error = "fuzz failure"
		}
		line, err := r.MarshalLine()
		if err != nil {
			// The writer rejected the record (invalid tool/wall/epochs);
			// that is a valid outcome, not a round-trip.
			return
		}
		got, err := DecodeRecord(line)
		if err != nil {
			t.Fatalf("writer accepted but reader rejected: %v\nline: %s", err, line)
		}
		if err := got.VerifyHash(); err != nil {
			t.Fatalf("round-trip hash: %v", err)
		}
		// String fields with invalid UTF-8 are canonicalized to U+FFFD on
		// write, so only compare them verbatim when the input was valid.
		if utf8.ValidString(tool) && got.Tool != tool {
			t.Fatalf("tool round-trip mismatch: %q != %q", got.Tool, tool)
		}
		if got.WallS != wallS || got.Runs[0].Seed != seed || got.Runs[0].Epochs != epochs {
			t.Fatalf("round-trip mismatch: %+v", got)
		}
		b, bok := got.Runs[0].Metrics["bips"]
		if !bok || b != bips {
			t.Fatalf("metric round-trip: got %v (ok=%v), want %v", b, bok, bips)
		}
	})
}

// TestReadArtifact: a pinned artifact reads back only while its bytes match
// the record; a missing file, a size change, a same-size edit and a name
// that leaves the run directory all fail, naming the artifact.
func TestReadArtifact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := l.WriteArtifact("run1", "learn/1-od-rl/learn.json", []byte(`{"epochs": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	if data, err := ReadArtifact(dir, "run1", art); err != nil || string(data) != `{"epochs": 10}` {
		t.Fatalf("read %q, err %v", data, err)
	}
	path := filepath.Join(dir, RunsDirName, "run1", "learn", "1-od-rl", "learn.json")
	for _, tc := range []struct {
		name string
		art  Artifact
		data []byte // nil removes the file
	}{
		{"edited", art, []byte(`{"epochs": 11}`)},
		{"resized", art, []byte(`{"epochs": 100}`)},
		{"missing", art, nil},
		{"escaping", Artifact{Name: "../run2/x", Bytes: art.Bytes, SHA256: art.SHA256}, []byte(`{"epochs": 10}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.data == nil {
				os.Remove(path) //nolint:errcheck // absence is the case under test
			} else if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadArtifact(dir, "run1", tc.art); err == nil || !strings.Contains(err.Error(), tc.art.Name) {
				t.Fatalf("err %v, want a failure naming %s", err, tc.art.Name)
			}
		})
	}
}
