package rl

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDiscretizerBasics(t *testing.T) {
	d, err := NewDiscretizer(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {0.1, 0}, {0.26, 1}, {0.51, 2}, {0.76, 3}, {1.0, 3}, {5, 3},
	}
	for _, c := range cases {
		if got := d.Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if d.Buckets() != 4 {
		t.Fatal("Buckets() wrong")
	}
}

// TestDiscretizerBucketNaN: NaN falls in bucket 0, inside [0, k), like
// every value at or below the range.
func TestDiscretizerBucketNaN(t *testing.T) {
	if got := MustDiscretizer(-0.5, 0.5, 5).Bucket(math.NaN()); got != 0 {
		t.Errorf("Bucket(NaN) = %d, want 0", got)
	}
}

func TestDiscretizerValidation(t *testing.T) {
	if _, err := NewDiscretizer(0, 1, 0); err == nil {
		t.Fatal("expected error for zero buckets")
	}
	if _, err := NewDiscretizer(1, 1, 3); err == nil {
		t.Fatal("expected error for empty range")
	}
	if _, err := NewDiscretizer(2, 1, 3); err == nil {
		t.Fatal("expected error for inverted range")
	}
}

func TestMustDiscretizerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustDiscretizer(0, 0, 1)
}

func TestCodecRoundTrip(t *testing.T) {
	c, err := NewCodec(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.States() != 60 {
		t.Fatalf("States = %d, want 60", c.States())
	}
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				s := c.Encode3(i, j, k)
				if s < 0 || s >= 60 {
					t.Fatalf("Encode3(%d,%d,%d) = %d out of range", i, j, k, s)
				}
				if seen[s] {
					t.Fatalf("Encode3 collision at %d", s)
				}
				seen[s] = true
				d := c.Decode(s)
				if d[0] != i || d[1] != j || d[2] != k {
					t.Fatalf("Decode(%d) = %v, want [%d %d %d]", s, d, i, j, k)
				}
			}
		}
	}
}

func TestCodecValidation(t *testing.T) {
	if _, err := NewCodec(); err == nil {
		t.Fatal("expected error for no dims")
	}
	if _, err := NewCodec(3, 0); err == nil {
		t.Fatal("expected error for zero dim")
	}
}

func TestCodecPanics(t *testing.T) {
	c := MustCodec(2, 3, 4)
	for _, fn := range []func(){
		func() { MustCodec(2, 2).Encode3(0, 0, 0) },
		func() { c.Encode3(2, 0, 0) },
		func() { c.Encode3(0, 3, 0) },
		func() { c.Encode3(0, 0, 4) },
		func() { c.Encode3(-1, 0, 0) },
		func() { c.Decode(24) },
		func() { c.Decode(-1) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Error("expected panic")
					return
				}
				if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "rl: ") {
					t.Errorf("panic %q lacks the rl: prefix", msg)
				}
			}()
			fn()
		}()
	}
}

// Property: bucket indices are monotone in the input value.
func TestQuickDiscretizerMonotone(t *testing.T) {
	d := MustDiscretizer(-10, 10, 16)
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return d.Bucket(a) <= d.Bucket(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode3∘Decode is the identity over the whole state space for
// arbitrary three-dimension codec shapes.
func TestQuickCodecBijective(t *testing.T) {
	f := func(d1, d2, d3 uint8) bool {
		c, err := NewCodec(int(d1%5)+1, int(d2%5)+1, int(d3%5)+1)
		if err != nil {
			return false
		}
		for s := 0; s < c.States(); s++ {
			if d := c.Decode(s); c.Encode3(d[0], d[1], d[2]) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
