// Parallel-tier benchmarks: what the intra-run fan-out — the
// dependence tester's pair sweep — buys on a single large analysis,
// sequential vs Parallel=4, plus the guard that parallelism must not
// tax small programs. `make bench-par` writes the headline numbers to
// BENCH_par.json via TestParBenchArtifact.
package beyondiv

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// parBenchProgram is the fan-out benchmark workload: independent
// top-level loops with quadratic per-loop pair counts, so the
// dependence tester has real concurrent work. The classifier, the
// frontend and the sweep's sequential prewarm stay on one worker, so
// the whole analysis speeds up by less than the sweep does.
func parBenchProgram() string { return progen.Large(24) }

// BenchmarkAnalyzeParallel: one large analysis by fan-out width.
// width=1 is the sequential baseline; the speedup at width=4 tracks
// the host's parallelism (≥1.8x expected on 4+ CPUs, ~1x on one).
func BenchmarkAnalyzeParallel(b *testing.B) {
	src := parBenchProgram()
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", width), func(b *testing.B) {
			an := NewAnalyzer(Options{Parallel: width})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := an.Analyze(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParBenchArtifact writes the parallel tier's headline numbers to
// the file named by BENCH_JSON (skipped when unset), so `make
// bench-par` leaves a machine-readable record in BENCH_par.json:
// sequential vs 4-worker analysis of the large generated program, and
// the sequential cost of a small program with the fan-out enabled
// (which must stay under the sweep's work-size threshold and therefore
// free).
// gomaxprocs/num_cpu are recorded alongside; the speedup expectations
// only bind on hosts that can actually run workers in parallel.
func TestParBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to write the benchmark artifact")
	}
	src := parBenchProgram()
	bench := func(width int, src string) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			an := NewAnalyzer(Options{Parallel: width})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := an.Analyze(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	seq, par := bench(1, src), bench(4, src)
	speedup := ratio(seq.NsPerOp(), par.NsPerOp())

	// Small-program guard: E6 is far below the fan-out threshold, so a
	// Parallel=4 analyzer must not slow it down.
	smallSeq, smallPar := bench(1, paper.ByID("E6").Source), bench(4, paper.ByID("E6").Source)
	smallOverhead := ratio(smallPar.NsPerOp(), smallSeq.NsPerOp())

	report := map[string]any{
		"gomaxprocs":                runtime.GOMAXPROCS(0),
		"num_cpu":                   runtime.NumCPU(),
		"large_seq_ns_per_op":       seq.NsPerOp(),
		"large_seq_allocs_per_op":   seq.AllocsPerOp(),
		"large_par4_ns_per_op":      par.NsPerOp(),
		"large_par4_allocs_per_op":  par.AllocsPerOp(),
		"par4_speedup":              speedup,
		"small_seq_ns_per_op":       smallSeq.NsPerOp(),
		"small_par4_ns_per_op":      smallPar.NsPerOp(),
		"small_par4_overhead_ratio": smallOverhead,
	}
	writeBenchJSON(t, path, report)
	t.Logf("Large(24): %d ns seq, %d ns par4 (%.2fx); E6 overhead ratio %.2f",
		seq.NsPerOp(), par.NsPerOp(), speedup, smallOverhead)

	// Speedup expectations scale with the host: a single-CPU machine
	// cannot beat sequential by construction, so only multi-CPU hosts
	// are held to them (the seed artifact records num_cpu honestly).
	if runtime.NumCPU() >= 4 && speedup < 1.8 {
		t.Errorf("Parallel=4 speedup %.2fx < 1.8x on a %d-CPU host", speedup, runtime.NumCPU())
	}
	if runtime.NumCPU() >= 2 && runtime.NumCPU() < 4 && speedup < 1.2 {
		t.Errorf("Parallel=4 speedup %.2fx < 1.2x on a %d-CPU host", speedup, runtime.NumCPU())
	}
	// Timing jitter allowance: the threshold check itself is free, so
	// 10% covers scheduler noise on any host.
	if smallOverhead > 1.10 {
		t.Errorf("Parallel=4 slows small sequential programs by %.0f%% (want < 10%%)", (smallOverhead-1)*100)
	}
}
