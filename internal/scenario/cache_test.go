package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tinySpec is a comparison spec small enough to run many times in tests.
func tinySpec() Spec {
	return Spec{
		Name:        "tiny",
		Workload:    "canneal",
		Controllers: []string{"pid"},
		Cores:       4,
		BudgetW:     8,
		WarmupS:     0.05,
		MeasureS:    0.1,
		Seeds:       []uint64{3},
		Workers:     1,
	}
}

// TestCacheHitByteIdentical is the headline cache property: running the
// identical spec twice hits the cache and yields a byte-identical table.
func TestCacheHitByteIdentical(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Cache: cache}

	t1, info1, err := eng.Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if info1.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	t2, info2, err := eng.Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !info2.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if info1.Hash != info2.Hash {
		t.Fatalf("hash changed between identical runs: %s vs %s", info1.Hash, info2.Hash)
	}
	var b1, b2 strings.Builder
	if _, err := t1.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("cached table not byte-identical:\n--- fresh\n%s--- cached\n%s", b1.String(), b2.String())
	}

	// A different worker count must share the same entry (workers are not
	// part of the scenario identity).
	s := tinySpec()
	s.Workers = 4
	_, info3, err := eng.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !info3.CacheHit || info3.Hash != info1.Hash {
		t.Errorf("workers=4 run did not share the cache entry: %+v vs hash %s", info3, info1.Hash)
	}
}

// TestCacheDiskPersistence proves entries survive across cache instances
// (the odrl-run re-invocation path) and that corrupt entries read as
// misses, never as bad tables.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Cache: cache}
	tbl, info, err := eng.Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := fresh.Get(info.Hash)
	if !ok {
		t.Fatal("disk entry missed through a fresh cache instance")
	}
	if !reflect.DeepEqual(got, tbl) {
		t.Errorf("disk round-trip changed the table:\n%+v\nvs\n%+v", got, tbl)
	}

	// Corrupt the entry: it must degrade to a miss.
	path := filepath.Join(dir, info.Hash+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	broken, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := broken.Get(info.Hash); ok {
		t.Error("corrupt disk entry read as a hit")
	}
}

// TestHashSingleFieldMutations sweeps one mutation per spec field and
// requires every mutant to hash differently from the base: any
// semantically meaningful field change must change the content address.
func TestHashSingleFieldMutations(t *testing.T) {
	base := mustLoad(t, fullSpecJSON)
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Spec){
		"name":        func(s *Spec) { s.Name = "renamed" },
		"platform":    func(s *Spec) { s.Platform = "manycore-4pstate" },
		"workload":    func(s *Spec) { s.Workload = "dedup" },
		"controllers": func(s *Spec) { s.Controllers = []string{"od-rl"} },
		"controller-order": func(s *Spec) {
			s.Controllers = []string{s.Controllers[1], s.Controllers[0]}
		},
		"benchmarks":       func(s *Spec) { s.Benchmarks = []string{"vips"} },
		"cores":            func(s *Spec) { s.Cores++ },
		"budget":           func(s *Spec) { s.BudgetW += 1 },
		"budget-schedule":  func(s *Spec) { s.BudgetSchedule[0].BudgetW += 1 },
		"epoch":            func(s *Spec) { s.EpochS *= 2 },
		"warmup":           func(s *Spec) { s.WarmupS += 0.1 },
		"measure":          func(s *Spec) { s.MeasureS += 0.1 },
		"sensor-noise":     func(s *Spec) { s.SensorNoise = ptr(0.05) },
		"sensor-noise-nil": func(s *Spec) { s.SensorNoise = nil },
		"thermal":          func(s *Spec) { s.ThermalOff = false },
		"seeds":            func(s *Spec) { s.Seeds = []uint64{7} },
		"quick":            func(s *Spec) { s.Quick = true },
		"fault-plan":       func(s *Spec) { s.FaultPlan.MeterBias += 0.01 },
		"fault-plan-nil":   func(s *Spec) { s.FaultPlan = nil },
		"alert-threshold":  func(s *Spec) { s.AlertRules[0].Threshold += 0.1 },
		"alert-rules-nil":  func(s *Spec) { s.AlertRules = nil },
		"sweep":            func(s *Spec) { s.Sweep = &Sweep{Param: "budget", Values: []float64{1, 2}} },
	}
	seen := map[string]string{baseHash: "base"}
	for name, mutate := range mutations {
		s := mustLoad(t, fullSpecJSON) // deep fresh copy via decode
		mutate(&s)
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == baseHash {
			t.Errorf("mutation %q did not change the hash", name)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutations %q and %q collide", name, prev)
		}
		seen[h] = name
	}
}

// TestFailedRunNeverCached: a run that fails leaves the cache untouched,
// so the failure is re-attempted rather than memoised.
func TestFailedRunNeverCached(t *testing.T) {
	// Validate refuses a -5 W sweep point, so the engine's body past
	// validation is driven directly: its run really starts, and fails in
	// sim.Run's option validation.
	failing := Spec{
		Workload:    "canneal",
		Controllers: []string{"pid"},
		Cores:       4,
		WarmupS:     0.05,
		MeasureS:    0.1,
		Workers:     1,
		Sweep:       &Sweep{Param: "budget", Values: []float64{-5}},
	}
	if err := failing.Validate(); err == nil {
		t.Fatal("Validate accepted a -5 W budget")
	}
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Cache: cache}
	for attempt := 1; attempt <= 2; attempt++ {
		_, info, err := eng.run(failing)
		if err == nil {
			t.Fatalf("attempt %d: failing spec ran without error", attempt)
		}
		if info.CacheHit {
			t.Fatalf("attempt %d: failure served from cache", attempt)
		}
		if cache.Len() != 0 {
			t.Fatalf("attempt %d: failed run was cached (%d entries)", attempt, cache.Len())
		}
		hash, herr := failing.Hash()
		if herr != nil {
			t.Fatal(herr)
		}
		if _, ok := cache.Get(hash); ok {
			t.Fatalf("attempt %d: failed run retrievable by hash", attempt)
		}
	}
}
