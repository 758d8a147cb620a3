package scenario

import (
	"embed"
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// specFS holds the checked-in specs: one per registered experiment. Each
// names the Go runner in internal/experiments that defines the experiment
// (the spec is a thin pointer to the runner, not the other way round), and
// the parity tests prove the engine regenerates every golden table
// byte-identically from these files.
//
//go:embed specs/*.json
var specFS embed.FS

// BuiltinIDs lists the experiment IDs with checked-in specs, in
// presentation order (the experiments.All order).
func BuiltinIDs() []string {
	ids := make([]string, 0, len(experiments.All()))
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// Builtin loads the checked-in spec for one experiment ID (case as in
// experiments.All: CLAIMS, T1, T2, F1..F19).
func Builtin(id string) (Spec, error) {
	b, err := specFS.ReadFile("specs/" + strings.ToLower(id) + ".json")
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: no builtin spec for %q (have %v)", id, BuiltinIDs())
	}
	s, err := LoadBytes(b)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: builtin spec %s: %w", id, err)
	}
	if s.Experiment != id {
		return Spec{}, fmt.Errorf("scenario: builtin spec %s names experiment %q", id, s.Experiment)
	}
	return s, nil
}
