package learn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Policy snapshots are content-addressed binary blobs: a fixed header, then
// either the full policy tensor or a delta against the parent snapshot
// (changed cells only), whichever is smaller. The blob's SHA-256 prefix
// names the artifact and a delta names its parent by full hash; the run's
// learn.json carries the run context.
//
// Layout (all little-endian):
//
//	magic   [8]byte  "ODRLSNAP"
//	version uint16   (1)
//	flags   uint16   (bit 0: delta-encoded; other bits must be zero)
//	epoch   int64    learning epoch the snapshot was taken at
//	cores   uint32
//	states  uint32
//	actions uint32
//	parent  [32]byte SHA-256 of the parent blob (zero for full snapshots)
//	payload full:  cores·states·actions × float64
//	        delta: count uint32, then count × (index uint32, value float64)

const (
	snapMagic   = "ODRLSNAP"
	snapVersion = 1

	snapFlagDelta = 1 << 0

	snapHeaderLen = 8 + 2 + 2 + 8 + 4 + 4 + 4 + 32

	// Decoder bounds: a snapshot describes per-core tabular policies, so the
	// dimensions are small by construction. The caps keep hostile inputs
	// (fuzzing, corrupted files) from forcing large allocations.
	snapMaxCores   = 1 << 16
	snapMaxStates  = 1 << 16
	snapMaxActions = 1 << 10
	snapMaxValues  = 1 << 26 // 512 MiB of float64 — far above any real chip
)

// Snapshot is one decoded policy snapshot.
type Snapshot struct {
	Epoch                  int64
	Cores, States, Actions int
	// Delta marks delta encoding; then Indices/Values hold the changed
	// cells and Parent the parent blob's hash. Full snapshots fill Q.
	Delta   bool
	Parent  [32]byte
	Q       []float64
	Indices []uint32
	Values  []float64
}

// total returns the policy tensor's cell count.
func (s *Snapshot) total() int { return s.Cores * s.States * s.Actions }

// Encode serialises the snapshot to its canonical byte form (the form
// DecodeSnapshot parses and whose SHA-256 names the file).
func (s *Snapshot) Encode() []byte {
	n := snapHeaderLen
	if s.Delta {
		n += 4 + len(s.Indices)*12
	} else {
		n += len(s.Q) * 8
	}
	b := make([]byte, n)
	copy(b, snapMagic)
	binary.LittleEndian.PutUint16(b[8:], snapVersion)
	var flags uint16
	if s.Delta {
		flags |= snapFlagDelta
	}
	binary.LittleEndian.PutUint16(b[10:], flags)
	binary.LittleEndian.PutUint64(b[12:], uint64(s.Epoch))
	binary.LittleEndian.PutUint32(b[20:], uint32(s.Cores))
	binary.LittleEndian.PutUint32(b[24:], uint32(s.States))
	binary.LittleEndian.PutUint32(b[28:], uint32(s.Actions))
	copy(b[32:], s.Parent[:])
	p := snapHeaderLen
	if s.Delta {
		binary.LittleEndian.PutUint32(b[p:], uint32(len(s.Indices)))
		p += 4
		for i, idx := range s.Indices {
			binary.LittleEndian.PutUint32(b[p:], idx)
			binary.LittleEndian.PutUint64(b[p+4:], math.Float64bits(s.Values[i]))
			p += 12
		}
	} else {
		for _, v := range s.Q {
			binary.LittleEndian.PutUint64(b[p:], math.Float64bits(v))
			p += 8
		}
	}
	return b
}

// DecodeSnapshot parses a snapshot blob. It is strict — unknown versions or
// flag bits, inconsistent dimensions, out-of-range delta indices and
// trailing bytes are all errors — so round-tripping Encode∘DecodeSnapshot
// is the identity on accepted inputs (fuzzed by FuzzSnapshotRoundTrip).
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < snapHeaderLen {
		return nil, fmt.Errorf("learn: snapshot too short (%d bytes)", len(b))
	}
	if string(b[:8]) != snapMagic {
		return nil, fmt.Errorf("learn: bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint16(b[8:]); v != snapVersion {
		return nil, fmt.Errorf("learn: unsupported snapshot version %d", v)
	}
	flags := binary.LittleEndian.Uint16(b[10:])
	if flags&^snapFlagDelta != 0 {
		return nil, fmt.Errorf("learn: unknown snapshot flags %#x", flags)
	}
	s := &Snapshot{
		Epoch:   int64(binary.LittleEndian.Uint64(b[12:])),
		Cores:   int(binary.LittleEndian.Uint32(b[20:])),
		States:  int(binary.LittleEndian.Uint32(b[24:])),
		Actions: int(binary.LittleEndian.Uint32(b[28:])),
		Delta:   flags&snapFlagDelta != 0,
	}
	copy(s.Parent[:], b[32:64])
	if s.Cores <= 0 || s.Cores > snapMaxCores ||
		s.States <= 0 || s.States > snapMaxStates ||
		s.Actions <= 0 || s.Actions > snapMaxActions {
		return nil, fmt.Errorf("learn: implausible snapshot shape %dx%dx%d", s.Cores, s.States, s.Actions)
	}
	total := s.total()
	if total > snapMaxValues {
		return nil, fmt.Errorf("learn: snapshot tensor too large (%d cells)", total)
	}
	body := b[snapHeaderLen:]
	if s.Delta {
		if len(body) < 4 {
			return nil, fmt.Errorf("learn: truncated delta header")
		}
		count := int(binary.LittleEndian.Uint32(body))
		if count > total {
			return nil, fmt.Errorf("learn: delta count %d exceeds tensor size %d", count, total)
		}
		if len(body) != 4+count*12 {
			return nil, fmt.Errorf("learn: delta payload is %d bytes, want %d", len(body), 4+count*12)
		}
		if s.Parent == ([32]byte{}) {
			return nil, fmt.Errorf("learn: delta snapshot without parent hash")
		}
		s.Indices = make([]uint32, count)
		s.Values = make([]float64, count)
		p := 4
		for i := 0; i < count; i++ {
			idx := binary.LittleEndian.Uint32(body[p:])
			if int(idx) >= total {
				return nil, fmt.Errorf("learn: delta index %d out of range [0,%d)", idx, total)
			}
			if i > 0 && idx <= s.Indices[i-1] {
				return nil, fmt.Errorf("learn: delta indices not strictly increasing at entry %d", i)
			}
			s.Indices[i] = idx
			s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[p+4:]))
			p += 12
		}
	} else {
		if s.Parent != ([32]byte{}) {
			return nil, fmt.Errorf("learn: full snapshot carries a parent hash")
		}
		if len(body) != total*8 {
			return nil, fmt.Errorf("learn: full payload is %d bytes, want %d", len(body), total*8)
		}
		s.Q = make([]float64, total)
		for i := range s.Q {
			s.Q[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
	}
	return s, nil
}

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

	s := &Snapshot{Epoch: int64(epoch), Cores: cores, States: states, Actions: actions}
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
		s, err := DecodeSnapshot(blob)
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
			if len(prevQ) != s.total() {
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
