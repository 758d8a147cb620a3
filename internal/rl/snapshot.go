package rl

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A policy snapshot is the one file format for learned per-core Q-tables:
// a fixed header, then either the full policy tensor (cores × states ×
// actions, core-major, each core's table row-major) or a delta against a
// parent snapshot (changed cells only). core.SavePolicy writes one full
// snapshot; the learn layer records a chain of them, names each blob by
// its SHA-256 and lets a delta name its parent by full hash.
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

// FullSnapshotLen is the encoded size of a full snapshot of the given
// shape, the most a reader of one full snapshot needs to read.
func FullSnapshotLen(cores, states, actions int) int {
	return snapHeaderLen + cores*states*actions*8
}

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
		return nil, fmt.Errorf("rl: snapshot too short (%d bytes)", len(b))
	}
	if string(b[:8]) != snapMagic {
		return nil, fmt.Errorf("rl: bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint16(b[8:]); v != snapVersion {
		return nil, fmt.Errorf("rl: unsupported snapshot version %d", v)
	}
	flags := binary.LittleEndian.Uint16(b[10:])
	if flags&^snapFlagDelta != 0 {
		return nil, fmt.Errorf("rl: unknown snapshot flags %#x", flags)
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
		return nil, fmt.Errorf("rl: implausible snapshot shape %dx%dx%d", s.Cores, s.States, s.Actions)
	}
	total := s.total()
	if total > snapMaxValues {
		return nil, fmt.Errorf("rl: snapshot tensor too large (%d cells)", total)
	}
	body := b[snapHeaderLen:]
	if s.Delta {
		if len(body) < 4 {
			return nil, fmt.Errorf("rl: truncated delta header")
		}
		count := int(binary.LittleEndian.Uint32(body))
		if count > total {
			return nil, fmt.Errorf("rl: delta count %d exceeds tensor size %d", count, total)
		}
		if len(body) != 4+count*12 {
			return nil, fmt.Errorf("rl: delta payload is %d bytes, want %d", len(body), 4+count*12)
		}
		if s.Parent == ([32]byte{}) {
			return nil, fmt.Errorf("rl: delta snapshot without parent hash")
		}
		s.Indices = make([]uint32, count)
		s.Values = make([]float64, count)
		p := 4
		for i := 0; i < count; i++ {
			idx := binary.LittleEndian.Uint32(body[p:])
			if int(idx) >= total {
				return nil, fmt.Errorf("rl: delta index %d out of range [0,%d)", idx, total)
			}
			if i > 0 && idx <= s.Indices[i-1] {
				return nil, fmt.Errorf("rl: delta indices not strictly increasing at entry %d", i)
			}
			s.Indices[i] = idx
			s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[p+4:]))
			p += 12
		}
	} else {
		if s.Parent != ([32]byte{}) {
			return nil, fmt.Errorf("rl: full snapshot carries a parent hash")
		}
		if len(body) != total*8 {
			return nil, fmt.Errorf("rl: full payload is %d bytes, want %d", len(body), total*8)
		}
		s.Q = make([]float64, total)
		for i := range s.Q {
			s.Q[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
	}
	return s, nil
}
