package main

import (
	"math/rand"
	"slices"
	"time"
)

// This box changes speed: for minutes at a time everything a run measures
// (set-up, queries, CPU time per statement, reopen) is a fifth slower, and
// then fast again. A run cannot outlast that, so it measures it: a fixed
// piece of work, the reference kernel, runs beside every phase, and each
// time is reported at reference speed, that is, divided by how much slower
// than nominal the kernel ran next to it. A rate is multiplied instead.
// Sizes and counts are left alone.

// kernelNominal is the time the reference kernel takes on this box when it
// is fast; it fixes the unit, nothing else.
const kernelNominal = 24 * time.Millisecond

var (
	kernelInput = func() []int64 {
		rng := rand.New(rand.NewSource(1))
		in := make([]int64, 300000)
		for i := range in {
			in[i] = rng.Int63()
		}
		return in
	}()
	kernelBuf  = make([]int64, len(kernelInput))
	kernelSink int64
)

// kernel copies and sorts 300 000 fixed integers (2.4 MB: compares,
// unpredictable branches, cache-sized memory traffic — the mix the engine's
// own work is made of) and returns how long that took.
func kernel() time.Duration {
	t0 := time.Now()
	copy(kernelBuf, kernelInput)
	slices.Sort(kernelBuf)
	kernelSink += kernelBuf[0]
	return time.Since(t0)
}

// speedometer collects kernel times around the phases of one instance.
type speedometer struct{ took []float64 }

func (s *speedometer) sample() { s.took = append(s.took, float64(kernel())) }

// slowdown is how many times slower than nominal the box ran: the median
// kernel time over the nominal one.
func (s *speedometer) slowdown() float64 { return median(s.took) / float64(kernelNominal) }
