package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSpecJSON fuzzes the external-bytes spec decoder: malformed input
// must never panic, and any input Load accepts must canonicalize to a
// fixed point (decode → canonicalize → re-encode → re-decode → same
// bytes) with a stable content hash. This is the round-trip contract the
// cache and the CLIs depend on.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"experiment": "F1"}`))
	f.Add([]byte(`{"sweep": {"param": "budget", "values": [40, 55, 70]}}`))
	f.Add([]byte(`{"sweep": {"param": "seed", "values": [0, -3, 1.5]}}`))
	f.Add([]byte(fullSpecJSON))
	for _, id := range BuiltinIDs() {
		if b, err := specFS.ReadFile("specs/" + strings.ToLower(id) + ".json"); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"cores": 1e400}`))
	f.Add([]byte(`{"seeds": [18446744073709551615]}`))
	f.Add([]byte(`{"fault_plan": {"seed": 1}, "alert_rules": []}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name": "\ud800"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadBytes(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("accepted spec failed to canonicalize: %v", err)
		}
		h1, err := s.Hash()
		if err != nil {
			t.Fatalf("accepted spec failed to hash: %v", err)
		}
		s2, err := LoadBytes(c1)
		if err != nil {
			t.Fatalf("canonical form rejected on re-load: %v\n%s", err, c1)
		}
		c2, err := s2.Canonical()
		if err != nil {
			t.Fatalf("re-canonicalize: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalization not a fixed point:\n--- first\n%s--- second\n%s", c1, c2)
		}
		h2, err := s2.Hash()
		if err != nil {
			t.Fatalf("re-hash: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("hash unstable across canonical round-trip: %s vs %s", h1, h2)
		}
	})
}
