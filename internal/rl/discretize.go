package rl

import "fmt"

// Discretizer maps a continuous value onto one of k uniform buckets over
// [lo, hi]; values outside the range clamp to the end buckets. It turns
// telemetry (power headroom, memory-boundedness, ...) into table indices.
type Discretizer struct {
	lo, hi float64
	k      int
}

// NewDiscretizer builds a k-bucket discretizer over [lo, hi].
func NewDiscretizer(lo, hi float64, k int) (Discretizer, error) {
	if k <= 0 {
		return Discretizer{}, fmt.Errorf("rl: bucket count must be positive, got %d", k)
	}
	if hi <= lo {
		return Discretizer{}, fmt.Errorf("rl: invalid range [%g, %g]", lo, hi)
	}
	return Discretizer{lo: lo, hi: hi, k: k}, nil
}

// MustDiscretizer is NewDiscretizer for static parameters.
func MustDiscretizer(lo, hi float64, k int) Discretizer {
	d, err := NewDiscretizer(lo, hi, k)
	if err != nil {
		panic(err)
	}
	return d
}

// Buckets returns the bucket count.
func (d Discretizer) Buckets() int { return d.k }

// Bucket returns the bucket index for v, clamped into [0, k); NaN falls
// in bucket 0.
func (d Discretizer) Bucket(v float64) int {
	if !(v > d.lo) {
		return 0
	}
	if v >= d.hi {
		return d.k - 1
	}
	b := int(float64(d.k) * (v - d.lo) / (d.hi - d.lo))
	if b >= d.k {
		b = d.k - 1
	}
	return b
}

// Codec flattens a multi-dimensional discrete state into a single table
// index, row-major with the first dimension varying slowest.
type Codec struct {
	dims []int
	size int
}

// NewCodec builds a codec over the given dimension sizes.
func NewCodec(dims ...int) (Codec, error) {
	if len(dims) == 0 {
		return Codec{}, fmt.Errorf("rl: codec needs at least one dimension")
	}
	size := 1
	for i, d := range dims {
		if d <= 0 {
			return Codec{}, fmt.Errorf("rl: codec dimension %d has size %d", i, d)
		}
		size *= d
	}
	out := Codec{dims: make([]int, len(dims)), size: size}
	copy(out.dims, dims)
	return out, nil
}

// MustCodec is NewCodec for static parameters.
func MustCodec(dims ...int) Codec {
	c, err := NewCodec(dims...)
	if err != nil {
		panic(err)
	}
	return c
}

// States returns the total flattened state count.
func (c Codec) States() int { return c.size }

// Encode3 flattens the per-dimension indices of a three-dimension codec
// into one state index, small enough to inline into a per-core loop. It
// panics on any other dimension count or an out-of-range index.
func (c Codec) Encode3(i, j, k int) int {
	d := c.dims
	if len(d) != 3 || uint(i) >= uint(d[0]) || uint(j) >= uint(d[1]) || uint(k) >= uint(d[2]) {
		panic(encodeError{c.dims, [3]int{i, j, k}})
	}
	return (i*d[1]+j)*d[2] + k
}

// encodeError is Encode3's panic value, formatted only when read.
type encodeError struct {
	dims []int
	idx  [3]int
}

func (e encodeError) Error() string {
	return fmt.Sprintf("rl: codec indices %v out of range for dims %v", e.idx, e.dims)
}

// Decode splits a state index into a fresh slice of per-dimension
// indices: for a three-dimension codec it inverts Encode3.
func (c Codec) Decode(state int) []int {
	if state < 0 || state >= c.size {
		panic(fmt.Sprintf("rl: state %d out of range [0,%d)", state, c.size))
	}
	out := make([]int, len(c.dims))
	for i := len(c.dims) - 1; i >= 0; i-- {
		out[i] = state % c.dims[i]
		state /= c.dims[i]
	}
	return out
}
