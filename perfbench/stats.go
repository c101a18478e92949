package main

import (
	"errors"
	"math"
	"slices"

	"sdpm/internal/client"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points that split xs into four
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4). A single sample is its own quartiles;
// an empty slice gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks, clamped to [1, n-1]
		// and interpolated exactly in integers as Python does.
		m := n + 1
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank value of xs at pct (0..100].
func percentile(xs []float64, pct float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	return s[max(1, rank)-1]
}

// tailPercentile returns the highest percentile, in steps of 0.1 and
// at most 99, whose nearest-rank position among n samples leaves at
// least minBeyond samples above it. ok is false when n is too small
// for any percentile to qualify.
func tailPercentile(n int) (pct float64, ok bool) {
	for p := 990; p > 0; p-- { // tenths of a percent
		rank := (p*n + 999) / 1000
		if rank >= 1 && n-rank >= minBeyond {
			return float64(p) / 10, true
		}
	}
	return 0, false
}

// outcome classifies one attempted operation.
type outcome int

const (
	ok        outcome = iota
	clientErr         // transport, digest or decoding failure at the client
	httpErr           // the server answered with a non-2xx status
	mismatch          // the answer differs from the independently computed one
)

// classify maps a client call's error to its outcome.
func classify(err error) outcome {
	if err == nil {
		return ok
	}
	var api *client.APIError
	if errors.As(err, &api) {
		return httpErr
	}
	return clientErr
}

// tally counts attempted operations by outcome. Every failure kind
// counts once against the attempt that suffered it.
type tally struct {
	attempted int
	byKind    [4]int
}

func (t *tally) add(o outcome) {
	t.attempted++
	t.byKind[o]++
}

// reclassify moves one already counted success to a failure kind, for
// a check that runs after the operation was counted.
func (t *tally) reclassify(o outcome) {
	t.byKind[ok]--
	t.byKind[o]++
}

func (t tally) failed() int { return t.attempted - t.byKind[ok] }

// failedShare is failed ÷ attempted (0 when nothing was attempted).
func (t tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}
