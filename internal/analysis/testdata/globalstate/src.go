// Package fixture exercises the globalstate analyzer. Loaded by the tests
// under an impersonated deterministic-path import path; want comments mark
// the diagnostics the analyzer must produce on that line.
package fixture

import (
	"sync"
	"sync/atomic"
)

var mu sync.Mutex // want "package-level var mu holds sync.Mutex"

var runs atomic.Int64 // want "package-level var runs holds atomic.Int64"

type entry struct {
	once sync.Once
	val  []float64
}

var lazy entry // want "package-level var lazy holds sync.Once"

// memo is the shape of a hand-keyed cross-run memo: a map of pointers to
// entries that each carry a Once.
var memo = map[string]*entry{} // want "package-level var memo holds sync.Once"

// Read-only tables hold no synchronisation state, and blank vars are
// exempt.
var (
	presets = map[string]float64{"low": 0.5, "high": 1.5}
	_       sync.Mutex
)

func local() float64 {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	runs.Add(1)
	lazy.once.Do(func() {})
	return presets["low"] + float64(len(memo))
}
