package main

import "time"

// The calibration kernel is a fixed piece of pure Go that touches no code of
// the repository: an integer mix feeding a dependent walk over a 256 KiB
// array. It is timed before and after every round, so a round measured while
// the machine was slow (a noisy neighbour, thermal throttling, a busy
// builder) is visible as such instead of reading as a regression — the
// failure the BENCH_9 trajectory point could not tell apart.
const (
	calibWords = 1 << 15 // 32768 uint64 = 256 KiB: L2-resident on the reference box
	calibSteps = 1 << 21
	// calibSlowShare flags a round whose calibration ran this much slower
	// than the best calibration of the run.
	calibSlowShare = 0.10
)

// keepAlive receives the results of measured loops (the kernel's, the trace
// probes') so that the compiler cannot drop the work.
var keepAlive uint64

var calibArray = func() []uint64 {
	a := make([]uint64, calibWords)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = x
	}
	return a
}()

// calibrate runs the kernel once and returns its wall-clock time.
func calibrate() time.Duration {
	start := time.Now()
	x, idx := uint64(1), uint64(0)
	for i := 0; i < calibSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx = (idx + calibArray[idx&(calibWords-1)] + x>>33) & (calibWords - 1)
		x ^= calibArray[idx]
	}
	keepAlive = x + idx
	return time.Since(start)
}

// calibrateBest returns the fastest of n kernel runs: the least disturbed one.
func calibrateBest(n int) time.Duration {
	best := calibrate()
	for i := 1; i < n; i++ {
		if d := calibrate(); d < best {
			best = d
		}
	}
	return best
}
