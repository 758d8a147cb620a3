package experiments

import (
	"reflect"
	"testing"
)

// runTable renders one experiment with the given worker count.
func runTable(t *testing.T, id string, workers int) Table {
	t.Helper()
	run, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := run(Config{Quick: true, Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return tbl
}

// TestParallelDeterminism is the regression gate for the parallel execution
// layer: every fanned-out experiment must produce byte-identical tables at
// Workers=1 (fully sequential) and Workers=8.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"F1", "F2", "F7", "F8", "F9", "F10", "F11", "F13", "F15", "F17", "F18", "F19"} {
		t.Run(id, func(t *testing.T) {
			seq := runTable(t, id, 1)
			par := runTable(t, id, 8)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s diverges between Workers=1 and Workers=8:\nseq: %+v\npar: %+v",
					id, seq, par)
			}
		})
	}
}
