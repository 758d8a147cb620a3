package analysis

import "sort"

// All returns the repo's analyzer suite in its canonical order. Order is
// presentation-only: diagnostics are position-sorted before reporting, so
// adding an analyzer never reshuffles existing output.
func All() []*Analyzer {
	return []*Analyzer{
		DetRange,
		RNGDiscipline,
		WallClock,
		HotpathAlloc,
		GlobalState,
	}
}

// ByName resolves a comma-separated selection against All, preserving the
// canonical order. Unknown names are returned so callers can fail fast
// (odrl-vet exits 2 on them).
func ByName(names []string) (selected []*Analyzer, unknown []string) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, a := range All() {
		if want[a.Name] {
			selected = append(selected, a)
			delete(want, a.Name)
		}
	}
	for n := range want {
		unknown = append(unknown, n)
	}
	sort.Strings(unknown)
	return selected, unknown
}
