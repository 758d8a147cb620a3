// Package ledger is the persistent cross-run observability layer: an
// append-only, content-addressed registry of CLI runs. Every command
// appends one structured run record — identity, provenance (scenario spec
// hash, engine version, host stamp), wall/CPU cost, end-of-run metric
// summaries, alert/fault counts and artifact pointers — to a JSONL ledger
// file, plus a per-run artifact directory for post-mortem bundles and
// benchmark reports. The observatory CLI (cmd/odrl-obs) queries it to
// list, diff, trend and regression-gate runs long after the processes
// that produced them have exited.
//
// Ledger timestamps are telemetry about the host, never inputs to
// simulation: the package is deliberately outside the deterministic path
// (odrl-vet audits its wall-clock reads instead of banning them).
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Schema is the run-record schema version. Bump it when a field changes
// meaning; decoders accept any version they can validate, and odrl-obs
// reports records whose schema it does not know rather than mis-reading
// them.
const Schema = 1

// ScenarioRef links a record to the declarative scenario engine: the spec
// content hash is the cross-run join key (identical hash ⇒ identical
// deterministic table), and CacheHit records that the engine served the
// table from its content-addressed cache instead of simulating.
type ScenarioRef struct {
	// Experiment is the canned experiment ID (T1, F1…) when the spec came
	// from the built-in set; empty for novel specs.
	Experiment string `json:"experiment,omitempty"`
	// SpecHash is the scenario spec's content address.
	SpecHash string `json:"spec_hash"`
	// EngineVersion stamps the engine that interpreted the spec.
	EngineVersion string `json:"engine_version,omitempty"`
	// CacheHit is true when the result came from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// RunSummary is the end-of-run metric summary of one simulation run
// observed by the flight recorder. Metrics derived from the deterministic
// epoch stream (bips, over_j, …) are identical across re-runs of the same
// spec; wall-clock metrics (decide_*) are host telemetry and are judged
// for regressions only when explicitly requested.
type RunSummary struct {
	Controller string  `json:"controller,omitempty"`
	Workload   string  `json:"workload,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Cores      int     `json:"cores,omitempty"`
	BudgetW    float64 `json:"budget_w,omitempty"`
	// FaultPlan is the run's fault-plan identity (fault.Plan.ID); empty
	// for a fault-free run.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Epochs is the observed measurement-epoch count.
	Epochs int `json:"epochs"`
	// Alerts and Faults count fired run-health alerts and injected faults.
	Alerts int `json:"alerts,omitempty"`
	Faults int `json:"faults,omitempty"`
	// Metrics is the open metric bag (see MetricDirections for the keys
	// the regression gate judges).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Key identifies the run within its record for cross-record matching:
// controller|workload|seed|cores|budget, plus |plan for a faulted run.
// Budget and plan separate the runs of a budget sweep (F7) or a fault
// intensity sweep (F18), which share everything else. A fault-free run's
// key has no plan part, so it still matches records written before the
// plan was recorded.
func (s RunSummary) Key() string {
	k := fmt.Sprintf("%s|%s|%d|%d|%g", s.Controller, s.Workload, s.Seed, s.Cores, s.BudgetW)
	if s.FaultPlan != "" {
		k += "|" + s.FaultPlan
	}
	return k
}

// BenchPoint is one benchmark-gate number (BENCH_*.json flattened), so the
// perf trajectory is queryable across the ledger without re-parsing report
// files.
type BenchPoint struct {
	// Kind is the gate family: "monitor", "learn", "flight".
	Kind string `json:"kind"`
	// Case is the report's case name, Metric the field within it.
	Case   string  `json:"case"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

// Artifact points at one file recorded under the run's artifact directory.
type Artifact struct {
	// Name is the path relative to the run's artifact directory.
	Name string `json:"name"`
	// Bytes and SHA256 pin the content so a later reader can detect rot.
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Record is one CLI run: the ledger's unit of appending. All fields are
// written once at commit; the Hash field is the record's content address
// (SHA-256 over the canonical JSON with Hash itself blanked), so any
// reader can verify a line has not been altered since it was appended.
type Record struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	// Tool is the command that ran (a RegisteredTools entry); Args are its
	// raw command-line arguments.
	Tool string   `json:"tool"`
	Args []string `json:"args,omitempty"`
	// Start is the run's wall-clock start (RFC3339Nano, UTC); WallS and
	// CPUS its elapsed wall and process-CPU seconds. Telemetry only.
	Start string  `json:"start"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s,omitempty"`
	// Host stamps the machine; wall-clock numbers are only comparable
	// across records sharing the stamp.
	Host obsHost `json:"host"`
	// Scenarios, Runs and Bench are the run's provenance and results.
	Scenarios []ScenarioRef `json:"scenarios,omitempty"`
	Runs      []RunSummary  `json:"runs,omitempty"`
	Bench     []BenchPoint  `json:"bench,omitempty"`
	// Alerts and Faults aggregate across Runs (kept denormalised so
	// filtering does not need to walk summaries).
	Alerts int `json:"alerts,omitempty"`
	Faults int `json:"faults,omitempty"`
	// Artifacts lists files under the run's artifact directory
	// (<ledger>/runs/<id>/).
	Artifacts []Artifact `json:"artifacts,omitempty"`
	// Status is "ok" or "failed"; Error carries the failure message.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Hash is the record's content address.
	Hash string `json:"hash"`
}

// obsHost aliases the shared host stamp (the same obs.Host every
// BENCH_*.json report embeds) so host comparisons across ledger records
// and benchmark reports are type-identical.
type obsHost = obs.Host

// StatusOK and StatusFailed are the only valid Status values.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Validate reports the first structural defect that would make the record
// unusable to the observatory.
func (r Record) Validate() error {
	switch {
	case r.Schema <= 0:
		return fmt.Errorf("ledger: record %q: missing schema", r.ID)
	case r.ID == "":
		return fmt.Errorf("ledger: record without id")
	case r.Tool == "":
		return fmt.Errorf("ledger: record %q: missing tool", r.ID)
	case r.Start == "":
		return fmt.Errorf("ledger: record %q: missing start time", r.ID)
	case r.WallS < 0:
		return fmt.Errorf("ledger: record %q: negative wall time %g", r.ID, r.WallS)
	case r.Status != StatusOK && r.Status != StatusFailed:
		return fmt.Errorf("ledger: record %q: invalid status %q", r.ID, r.Status)
	case r.Status == StatusFailed && r.Error == "":
		return fmt.Errorf("ledger: record %q: failed without error", r.ID)
	}
	for i, s := range r.Runs {
		if s.Epochs < 0 {
			return fmt.Errorf("ledger: record %q: run %d: negative epoch count", r.ID, i)
		}
	}
	for i, a := range r.Artifacts {
		if a.Name == "" {
			return fmt.Errorf("ledger: record %q: artifact %d without name", r.ID, i)
		}
	}
	return nil
}

// canonicalize round-trips the record through JSON so string fields are
// valid UTF-8. Marshal escapes an invalid byte as � but re-marshals
// the decoded replacement rune as raw bytes — without this pass, a record
// written with a non-UTF-8 arg would fail its own hash check on read
// (found by FuzzRunRecord).
func canonicalize(r Record) (Record, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return Record{}, fmt.Errorf("ledger: canonicalizing record: %w", err)
	}
	var c Record
	if err := json.Unmarshal(b, &c); err != nil {
		return Record{}, fmt.Errorf("ledger: canonicalizing record: %w", err)
	}
	return c, nil
}

// ContentHash computes the record's content address: SHA-256 over the
// canonical JSON encoding with the Hash field blanked. encoding/json
// sorts map keys, so the encoding — and therefore the address — is a pure
// function of the record's content.
func (r Record) ContentHash() (string, error) {
	c, err := canonicalize(r)
	if err != nil {
		return "", err
	}
	c.Hash = ""
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("ledger: hashing record: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// VerifyHash recomputes the content address and reports a mismatch — the
// ledger-integrity check odrl-obs runs before trusting a line.
func (r Record) VerifyHash() error {
	want, err := r.ContentHash()
	if err != nil {
		return err
	}
	if r.Hash != want {
		return fmt.Errorf("ledger: record %q: content hash mismatch (stored %s, computed %s)", r.ID, r.Hash, want)
	}
	return nil
}

// MarshalLine encodes the record as one ledger line (no trailing newline),
// filling Hash first. The canonical form is what gets written, so the
// stored bytes are exactly what a reader will re-derive the hash from.
func (r Record) MarshalLine() ([]byte, error) {
	c, err := canonicalize(r)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	h, err := c.ContentHash()
	if err != nil {
		return nil, err
	}
	c.Hash = h
	return json.Marshal(c)
}

// DecodeRecord parses one ledger line. Unknown fields are rejected so a
// schema drift surfaces as a decode error instead of silent data loss.
func DecodeRecord(line []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var r Record
	if err := dec.Decode(&r); err != nil {
		return Record{}, fmt.Errorf("ledger: decoding record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// SortedMetricNames returns the union of metric keys across the record's
// run summaries, sorted — the stable iteration order every renderer uses.
func (r Record) SortedMetricNames() []string {
	seen := map[string]bool{}
	for _, s := range r.Runs {
		for k := range s.Metrics {
			seen[k] = true
		}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
