package learn

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/rl"
)

// Policy snapshots are rl.Snapshot blobs (see internal/rl for the layout),
// content-addressed: each is either the full policy tensor or a delta
// against the parent snapshot (changed cells only), whichever is smaller.
// The blob's SHA-256 prefix names the artifact and a delta names its parent
// by full hash; the run's learn.json carries the run context.

// recorder owns one learning run's artifacts and hands them to the sink:
// the policy snapshot chain, and learn.json at run end.
type recorder struct {
	sink   func(name string, data []byte)
	prefix string // learn/<n>-<controller>/
	every  int    // snapshot cadence in learning epochs; 0 records none

	// convLog holds the drained, stamped convergence events for
	// learn.json; only the draining goroutine touches it.
	convLog []obs.ConvergedEvent

	mu       sync.Mutex
	seq      int // write sequence, prefixed to names for chain order
	prev     []float64
	cur      []float64
	prevHash [32]byte
	hasPrev  bool
	firstErr error
}

func (sn *recorder) err() error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.firstErr
}

func (sn *recorder) fail(err error) {
	if sn.firstErr == nil {
		sn.firstErr = err
	}
}

// write exports the policy and hands one snapshot to the sink, outside the
// lock; errors are sticky and later writes become no-ops once one fails.
func (sn *recorder) write(epoch int, src PolicySource) {
	if name, blob := sn.next(epoch, src); blob != nil {
		sn.sink(name, blob)
	}
}

// next encodes the snapshot of src at epoch against the chain and advances
// the chain; a nil blob means there is nothing to write.
func (sn *recorder) next(epoch int, src PolicySource) (string, []byte) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.firstErr != nil {
		return "", nil
	}
	cores, states, actions := src.PolicyShape()
	if cores == 0 {
		// No exportable tabular policy (e.g. function approximation): not an
		// error, simply nothing to snapshot.
		return "", nil
	}
	total := cores * states * actions
	if sn.cur == nil {
		sn.cur = make([]float64, total)
	} else if len(sn.cur) != total {
		sn.fail(fmt.Errorf("learn: policy shape changed mid-run (%d -> %d cells)", len(sn.cur), total))
		return "", nil
	}
	if err := src.CopyPolicy(sn.cur); err != nil {
		sn.fail(err)
		return "", nil
	}

	s := &rl.Snapshot{Epoch: int64(epoch), Cores: cores, States: states, Actions: actions}
	if sn.hasPrev {
		var idx []uint32
		var vals []float64
		for i, v := range sn.cur {
			if v != sn.prev[i] {
				idx = append(idx, uint32(i))
				vals = append(vals, v)
			}
		}
		if len(idx) == 0 {
			// Policy is bit-identical to the last snapshot: content
			// addressing makes a new blob pure redundancy, so skip it.
			return "", nil
		}
		// Delta pays off only when smaller than the full tensor.
		if 4+len(idx)*12 < total*8 {
			s.Delta, s.Parent, s.Indices, s.Values = true, sn.prevHash, idx, vals
		}
	}
	if !s.Delta {
		s.Q = sn.cur
	}
	blob := s.Encode()
	hash := sha256.Sum256(blob)
	// The sequence prefix makes lexical name order equal write order, which
	// is what the delta chain needs (epochs alone could collide).
	name := fmt.Sprintf("%ssnap-%06d-e%08d-%s.qsnap", sn.prefix, sn.seq, epoch, hex.EncodeToString(hash[:6]))
	sn.seq++
	if sn.prev == nil {
		sn.prev = make([]float64, total)
	}
	sn.prev, sn.cur = sn.cur, sn.prev
	sn.prevHash, sn.hasPrev = hash, true
	return name, blob
}

// report hands the run's learn.json to the sink; an unencodable report
// (a non-finite metric) is the run's artifact error instead.
func (sn *recorder) report(rep Report) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		sn.mu.Lock()
		sn.fail(fmt.Errorf("learn: %slearn.json: %w", sn.prefix, err))
		sn.mu.Unlock()
		return
	}
	sn.sink(sn.prefix+"learn.json", append(data, '\n'))
}

// close releases the delta-chain buffers.
func (sn *recorder) close() {
	sn.mu.Lock()
	sn.prev, sn.cur = nil, nil
	sn.mu.Unlock()
}

// sanitize keeps artifact names filesystem-safe.
func sanitize(s string) string {
	if s == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, s)
}

// LoadedSnap is one snapshot reconstructed to its full policy tensor.
type LoadedSnap struct {
	Epoch                  int64
	Cores, States, Actions int
	Hash                   string
	Q                      []float64
}

// LoadSnapshots reads the named snapshot blobs through read, verifies the
// delta chain (parent hashes and shapes) and reconstructs each snapshot's
// full policy, returned in epoch order. Names sort in write order (the
// zero-padded sequence the recorder prefixes), whatever order they
// arrive in.
func LoadSnapshots(names []string, read func(name string) ([]byte, error)) ([]LoadedSnap, error) {
	names = append([]string(nil), names...)
	sort.Strings(names)
	var out []LoadedSnap
	var prevQ []float64
	var prevHash [32]byte
	havePrev := false
	for _, name := range names {
		blob, err := read(name)
		if err != nil {
			return nil, err
		}
		s, err := rl.DecodeSnapshot(blob)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path.Base(name), err)
		}
		sum := sha256.Sum256(blob)
		ls := LoadedSnap{
			Epoch: s.Epoch, Cores: s.Cores, States: s.States, Actions: s.Actions,
			Hash: hex.EncodeToString(sum[:]),
		}
		if s.Delta {
			if !havePrev {
				return nil, fmt.Errorf("%s: delta snapshot with no preceding snapshot", path.Base(name))
			}
			if s.Parent != prevHash {
				return nil, fmt.Errorf("%s: delta parent hash does not match previous snapshot", path.Base(name))
			}
			if len(prevQ) != s.Cores*s.States*s.Actions {
				return nil, fmt.Errorf("%s: delta shape does not match previous snapshot", path.Base(name))
			}
			q := append([]float64(nil), prevQ...)
			for i, idx := range s.Indices {
				q[idx] = s.Values[i]
			}
			ls.Q = q
		} else {
			ls.Q = s.Q
		}
		prevQ = ls.Q
		prevHash = sum
		havePrev = true
		out = append(out, ls)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, nil
}
