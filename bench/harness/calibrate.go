package harness

import (
	"bytes"
	"crypto/sha256"
	"time"
)

// Host-speed calibration. The reference host's speed drifts by a fifth
// and more over minutes, and a run of the same code on a slow stretch
// reads as a regression. Every workload therefore times a fixed
// computation before every pass (library workloads) or one-second window
// (serve) and after every set-up, in its own process, and reports each
// time metric scaled to a host on which that computation takes
// calNominalMS:
//
//	calibrated = measured × calNominalMS / calibration
//
// The computation hashes a fixed buffer with SHA-256. It neither
// allocates nor misses the cache, so it measures the speed the host
// gives the calling thread and nothing of the heap or the operating
// system, and no change to this repository's code changes its cost.
// Candidates were compared on sets of ten runs with every candidate
// timed before the same passes and windows. SHA-256 gave the narrowest
// spreads overall. Parsing and printing a Go file, which allocates,
// spread from run to run more than the passes it calibrated, so it
// widened them; a pointer walk over a parsed file, a chase through
// 32 MiB, file writes and loopback round trips were no steadier; and two
// computations run at once, one on each CPU, spread by half. The
// measured values stay in the info rows as raw.<metric>.

// calNominalMS is the calibration's typical time on the reference host
// (2 CPUs, go1.24.0), so calibrated numbers read close to that host's.
const calNominalMS = 6.8

// calBuf is the calibration's input: 256 KiB, hashed 32 times.
var calBuf = bytes.Repeat([]byte("0123456789abcdef"), 1<<14)

var calSink byte

// calibrate times the calibration twice and returns the faster, in ms.
func calibrate() float64 {
	best := 0.0
	for k := 0; k < 2; k++ {
		t0 := time.Now()
		for i := 0; i < 32; i++ {
			sum := sha256.Sum256(calBuf)
			calSink ^= sum[0]
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if k == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// calScale is the factor that turns a time measured beside a
// calibration of cal ms into a calibrated one.
func calScale(cal float64) float64 { return calNominalMS / cal }

// timing sets the time metric name to the median of vs[i]·k[i], one
// value per pass, window or set-up with its calibration factor, and
// records the median of the measured values as the info row raw.<name>.
// Taking the median over passes means a transient slowdown of the host
// moves a few passes, not the metric.
func (r *Result) timing(name string, vs, k []float64, samples int) {
	cal := make([]float64, len(vs))
	for i := range vs {
		cal[i] = vs[i] * k[i]
	}
	r.set(name, median(cal), samples)
	r.info("raw."+name, r.Metrics[name].Unit, median(vs), samples)
}
