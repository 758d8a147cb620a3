package main

import (
	"math"
	"time"
)

// Host time on a shared machine moves with other tenants' load, by up to
// 2x over minutes, which is more than any regression bound could absorb.
// The end-to-end times are therefore normalised: each timed call is
// bracketed by a fixed reference loop, and its host seconds are scaled by
// refLoopNominalS over the loop's measured duration. Load that slows the
// call slows the loop alike and cancels; a change to the simulator moves
// only the call. Normalised seconds are host seconds on a host where the
// loop takes refLoopNominalS. The loop runs on one goroutine even beside
// the grid's two fan-out workers: timing two copies at once measured the
// slower CPU and doubled the grid's run-to-run spread.

// refLoopNominalS is the reference loop's duration on an idle core of the
// calibration host (see README), so normalised seconds read like host
// seconds there.
const refLoopNominalS = 0.020

// refLoopDraws sizes the reference loop to about refLoopNominalS on that
// host.
const refLoopDraws = 900_000

// refSink keeps the reference work's results live so the compiler cannot
// drop it.
var refSink float64

// refLoop runs a fixed amount of work shaped like the simulator's hot loops
// and returns its duration in seconds: an xorshift128+ stream turned into
// Gaussian variates by the polar method (a logarithm and a square root per
// variate). It shares no code with the simulator, so no change there can
// move it.
func refLoop() float64 {
	s0, s1 := uint64(0x9e3779b97f4a7c15), uint64(0xbf58476d1ce4e5b9)
	uniform := func() float64 {
		a, b := s0, s1
		s0 = b
		a ^= a << 23
		s1 = a ^ b ^ (a >> 17) ^ (b >> 26)
		return float64((s1+b)>>11) / (1 << 53)
	}
	t0 := time.Now()
	sum := 0.0
	for i := 0; i < refLoopDraws; i++ {
		for {
			u, v := 2*uniform()-1, 2*uniform()-1
			if s := u*u + v*v; s > 0 && s < 1 {
				sum += u * math.Sqrt(-2*math.Log(s)/s)
				break
			}
		}
	}
	refSink += sum
	return time.Since(t0).Seconds()
}

// refScale converts host seconds of a call to normalised seconds, given the
// reference loop's durations just before and just after it.
func refScale(before, after float64) float64 {
	return refLoopNominalS / ((before + after) / 2)
}
