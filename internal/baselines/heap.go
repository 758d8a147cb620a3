package baselines

// A heap here is a max-heap of core indices ordered by key[core]. siftDown
// and siftUp move entries exactly as container/heap's down and up do for a
// Less of key[a] > key[b], so building, popping (move the last entry to
// the root, shrink, siftDown from 0) and pushing (append, siftUp) in the
// same order visits cores in container/heap's order, ties and NaN keys
// included, without its interface calls.

// siftDown moves heap[i] down until no child's key exceeds its own.
//
//odrl:hotpath
func siftDown(heap []int, key []float64, i int) {
	for {
		j := 2*i + 1
		if j >= len(heap) {
			return
		}
		if r := j + 1; r < len(heap) && key[heap[r]] > key[heap[j]] {
			j = r
		}
		if !(key[heap[j]] > key[heap[i]]) {
			return
		}
		heap[i], heap[j] = heap[j], heap[i]
		i = j
	}
}

// siftUp moves heap[j] up until its parent's key is at least its own.
//
//odrl:hotpath
func siftUp(heap []int, key []float64, j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !(key[heap[j]] > key[heap[i]]) {
			return
		}
		heap[i], heap[j] = heap[j], heap[i]
		j = i
	}
}
