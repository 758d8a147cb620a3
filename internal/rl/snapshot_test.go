package rl

import (
	"bytes"
	"reflect"
	"testing"
)

func TestSnapshotEncodeDecodeFull(t *testing.T) {
	s := &Snapshot{Epoch: 42, Cores: 2, States: 3, Actions: 2, Q: []float64{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
	}}
	blob := s.Encode()
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, got)
	}
	if !bytes.Equal(blob, got.Encode()) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestSnapshotEncodeDecodeDelta(t *testing.T) {
	s := &Snapshot{
		Epoch: 7, Cores: 4, States: 8, Actions: 4, Delta: true,
		Indices: []uint32{0, 5, 100},
		Values:  []float64{1.5, -2.25, 0},
	}
	s.Parent[0] = 0xAB
	blob := s.Encode()
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, got)
	}
}

func TestSnapshotDecodeRejects(t *testing.T) {
	good := (&Snapshot{Epoch: 1, Cores: 1, States: 2, Actions: 2, Q: []float64{1, 2, 3, 4}}).Encode()
	cases := []struct {
		name string
		blob []byte
	}{
		{"short", good[:10]},
		{"bad-magic", append([]byte("NOTASNAP"), good[8:]...)},
		{"bad-version", func() []byte { b := append([]byte(nil), good...); b[8] = 99; return b }()},
		{"bad-flags", func() []byte { b := append([]byte(nil), good...); b[10] = 0x80; return b }()},
		{"truncated", good[:len(good)-4]},
		{"trailing", append(append([]byte(nil), good...), 0)},
		{"zero-shape", func() []byte { b := append([]byte(nil), good...); b[20], b[21], b[22], b[23] = 0, 0, 0, 0; return b }()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSnapshot(tc.blob); err == nil {
				t.Fatal("corrupted blob accepted")
			}
		})
	}
}

// FuzzSnapshotRoundTrip: any blob the strict decoder accepts must re-encode
// to the identical bytes and decode again to the identical structure; no
// input may panic or over-allocate.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add((&Snapshot{Epoch: 1, Cores: 1, States: 2, Actions: 2, Q: []float64{1, 2, 3, 4}}).Encode())
	d := &Snapshot{Epoch: 9, Cores: 2, States: 2, Actions: 2, Delta: true,
		Indices: []uint32{0, 7}, Values: []float64{-1, 2.5}}
	d.Parent[0] = 1
	f.Add(d.Encode())
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeSnapshot(blob)
		if err != nil {
			return
		}
		re := s.Encode()
		if !bytes.Equal(blob, re) {
			t.Fatalf("accepted blob does not round-trip:\n in %x\nout %x", blob, re)
		}
		s2, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Compare via canonical bytes, not DeepEqual: NaN payloads survive
		// the bit-level round trip but NaN != NaN under DeepEqual.
		if !bytes.Equal(re, s2.Encode()) {
			t.Fatal("re-decode structure mismatch")
		}
	})
}
