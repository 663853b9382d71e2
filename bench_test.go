// Benchmarks regenerating the paper's performance claims, one per
// experiment id of DESIGN.md. Shape expectations (EXPERIMENTS.md holds
// measured numbers):
//
//	E16 BenchmarkScaling/*            — ns/statement flat as programs grow
//	                                    (§7: "linear in the size of the SSA
//	                                    graph, not iterative")
//	E17 BenchmarkUnifiedVsClassical/* — the one-pass SSA classifier vs the
//	                                    iterative classical matcher with its
//	                                    ad hoc recognizers
//	E1/E6/E8 BenchmarkClassify*       — per-class classification costs
//	E13–E15 BenchmarkDependence*      — dependence testing costs
//	E19 BenchmarkStrengthReduce       — transformation cost
//	BenchmarkRestructure              — chunked execution of loops the
//	                                    restructuring tier proves parallel
//
// The system's end-to-end and per-layer numbers come from bench/
// (bash bench/run.sh); these plain benchmarks stay for the paper's
// shapes and for quantities bench/ has no metric for.
package beyondiv

import (
	"fmt"
	"testing"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/classical"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/interp"
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
	"beyondiv/internal/obs"
	"beyondiv/internal/paper"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
	"beyondiv/internal/sccp"
	"beyondiv/internal/ssa"
	"beyondiv/internal/xform"
)

// pipeline runs everything up to (not including) classification, so
// classifier benchmarks measure just the paper's algorithm.
type pipelineState struct {
	info   *ssa.Info
	forest *loops.Forest
	consts *sccp.Result
}

func buildPipeline(b *testing.B, src string) *pipelineState {
	b.Helper()
	st, err := engine.New(engine.Config{Passes: engine.Frontend()}).Analyze(src)
	if err != nil {
		b.Fatal(err)
	}
	return &pipelineState{info: st.SSA, forest: st.Forest, consts: st.Consts}
}

// countSSAValues sizes the SSA graph for per-node reporting.
func countSSAValues(info *ssa.Info) int {
	n := 0
	for _, blk := range info.Func.Blocks {
		n += len(blk.Values)
	}
	return n
}

// E16: time per SSA-graph node must stay flat as the loop body grows —
// the paper's linearity claim. stmts=N times the classifier alone;
// analyze/stmts=N a cold facade Analyze (no cache), every layer from
// scan to the dependence tester, per node of the same graph.
func BenchmarkScaling(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		src := progen.StraightLineLoop(n)
		st := buildPipeline(b, src)
		nodes := countSSAValues(st.info)
		perNode := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/ssa-node")
		}
		b.Run(fmt.Sprintf("stmts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				iv.Analyze(st.info, st.forest, st.consts)
			}
			perNode(b)
		})
		b.Run(fmt.Sprintf("analyze/stmts=%d", n), func(b *testing.B) {
			an := NewAnalyzer(Options{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := an.Analyze(src); err != nil {
					b.Fatal(err)
				}
			}
			perNode(b)
		})
	}
}

// E16b: the same sweep over mutually-defined chains (single large SCR).
func BenchmarkScalingMutualChain(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			st := buildPipeline(b, progen.MutualChain(n))
			nodes := countSSAValues(st.info)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iv.Analyze(st.info, st.forest, st.consts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/ssa-node")
		})
	}
}

// E17: unified one-pass classification vs the classical iterative
// matcher plus ad hoc recognizer passes, on identical inputs. Both
// sides run their whole front end so the comparison is end to end, as
// a compiler would experience it.
func BenchmarkUnifiedVsClassical(b *testing.B) {
	workloads := map[string]string{
		"paperCorpus": corpusSource(),
		"mixed×10":    progen.MixedClasses(10),
		"mixed×50":    progen.MixedClasses(50),
		"straight1k":  progen.StraightLineLoop(1000),
	}
	for name, src := range workloads {
		file, err := parse.File(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("unified/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := cfgbuild.Build(file)
				info := ssa.Build(res.Func)
				forest := loops.Analyze(res.Func, info.Dom)
				iv.Analyze(info, forest, sccp.Run(info))
			}
		})
		b.Run("classical/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classical.Analyze(cfgbuild.Build(file))
			}
		})
	}
}

func corpusSource() string {
	out := ""
	for _, p := range paper.Corpus {
		out += p.Source + "\n"
	}
	return out
}

// classifyBench measures classification alone on one corpus entry,
// reporting the SCR population from one instrumented run (untimed).
func classifyBench(b *testing.B, id string) {
	b.Helper()
	p := paper.ByID(id)
	if p == nil {
		b.Fatalf("no corpus entry %s", id)
	}
	st := buildPipeline(b, p.Source)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv.Analyze(st.info, st.forest, st.consts)
	}
	b.StopTimer()
	rec := obs.New()
	if _, err := AnalyzeWith(p.Source, Options{SkipDependences: true, Obs: rec}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rec.CounterTotal("iv.scr.")), "scrs/op")
}

// E1: linear families (Figure 1).
func BenchmarkClassifyLinear(b *testing.B) { classifyBench(b, "E2") }

// E3: conditional equal-increment families (Figure 3).
func BenchmarkClassifyConditionalLinear(b *testing.B) { classifyBench(b, "E3") }

// E4: wrap-around chains (Figure 4).
func BenchmarkClassifyWrapAround(b *testing.B) { classifyBench(b, "E4") }

// E5: periodic rotations (Figure 5).
func BenchmarkClassifyPeriodic(b *testing.B) { classifyBench(b, "E5c") }

// E6/E7: polynomial and geometric closed forms via matrix inversion
// (§4.3, loop L14) — the most expensive classification path.
func BenchmarkClassifyClosedForms(b *testing.B) { classifyBench(b, "E6") }

// E8: monotonic regions (Figure 6).
func BenchmarkClassifyMonotonic(b *testing.B) { classifyBench(b, "E8b") }

// E10: nested loops with exit values (Figures 7/8).
func BenchmarkClassifyNested(b *testing.B) { classifyBench(b, "E10") }

// E11: the triangular quadratic nest (Figure 9).
func BenchmarkClassifyTriangular(b *testing.B) { classifyBench(b, "E11") }

// E9: trip-count computation across the §5.2 table programs.
func BenchmarkTripCounts(b *testing.B) { classifyBench(b, "E9") }

// dependence benchmarks: full analysis including testing, with the
// tested-pair count from one instrumented run (untimed).
func dependenceBench(b *testing.B, src string) {
	b.Helper()
	a, err := iv.AnalyzeProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depend.Analyze(a, depend.Options{})
	}
	b.StopTimer()
	rec := obs.New()
	if _, err := AnalyzeWith(src, Options{Parallel: 1, Obs: rec}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rec.Counter("depend.pairs.tested")), "dep-tests/op")
}

// E13: the L21 induction-expression equation.
func BenchmarkDependenceL21(b *testing.B) { dependenceBench(b, paper.ByID("E13").Source) }

// E14: periodic subscripts (L22).
func BenchmarkDependenceL22(b *testing.B) { dependenceBench(b, paper.ByID("E14").Source) }

// E15: the normalization-study nest (L23/L24).
func BenchmarkDependenceL23(b *testing.B) { dependenceBench(b, paper.ByID("E15").Source) }

// E12: monotonic directions (Figure 10).
func BenchmarkDependenceMonotonic(b *testing.B) { dependenceBench(b, paper.ByID("E12").Source) }

// E13b: dependence testing over a growing access population.
func BenchmarkDependenceSweep(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		src := "L1: for i = 1 to 50 {\n"
		for k := 0; k < n; k++ {
			src += fmt.Sprintf("    a[i + %d] = a[i] + %d\n", k, k)
		}
		src += "}\n"
		b.Run(fmt.Sprintf("accesses=%d", n+1), func(b *testing.B) {
			dependenceBench(b, src)
		})
	}
}

// E19: strength reduction over a fresh analysis each round (the
// transformation mutates the SSA).
func BenchmarkStrengthReduce(b *testing.B) {
	src := `
L1: for i = 1 to n {
    L2: for j = 1 to n {
        a[64 * i + j] = a[64 * i + j - 64] + 8 * j
    }
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := iv.AnalyzeProgram(src)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		xform.ReduceStrength(a)
	}
}

// E18: wrap-around peeling at the AST level.
func BenchmarkPeel(b *testing.B) {
	src := paper.ByID("E4").Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		file, err := parse.File(src)
		if err != nil {
			b.Fatal(err)
		}
		xform.PeelProgram(file, nil)
	}
}

// BenchmarkRestructure: what the analysis→restructure→parallelize
// chain buys at execution time, sequential vs chunked across 4
// workers. The relaxation's inner loop is parallel as written; the
// column stencil only after interchange, so its sequential side is the
// original nest and its parallel side the interchanged one the
// pipeline hands back. TestParmarkMarksProvablyParallelLoop and
// TestInterchangePromotesInnerParallelLoop prove the L2 marks on these
// programs. The merge replays every store sequentially, so the speedup
// stays well under the worker count, and a host with fewer than 4 CPUs
// cannot show the full effect.
func BenchmarkRestructure(b *testing.B) {
	relax := benchRelaxation(16, 2048)
	stencil, swapped := benchStencil(64, 256)
	cases := []struct {
		name    string
		src     string
		workers int // 0: sequential RunAST
	}{
		{"relaxation/seq", relax, 0},
		{"relaxation/workers=4", relax, 4},
		{"stencil/seq", stencil, 0},
		{"stencil/workers=4", swapped, 4},
	}
	cfg := interp.Config{MaxSteps: 50_000_000}
	marks := map[string]bool{"L2": true}
	for _, c := range cases {
		file, err := parse.File(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if c.workers == 0 {
					_, err = interp.RunAST(file, cfg)
				} else {
					_, err = interp.RunASTParallel(file, cfg, marks, c.workers)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E0: the whole pipeline end to end on the paper corpus, the number a
// compiler integrator would care about.
func BenchmarkFullPipelineCorpus(b *testing.B) {
	src := corpusSource()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rec := obs.New()
	if _, err := AnalyzeWith(src, Options{Obs: rec}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rec.CounterTotal("iv.scr.")), "scrs/op")
	b.ReportMetric(float64(rec.Counter("depend.pairs.tested")), "dep-tests/op")
}

// Telemetry overhead: the nil-recorder path (plain Analyze) vs a live
// recorder. The "off" variant is the number that must not regress —
// telemetry off is a nil check per site, nothing more.
func BenchmarkTelemetryOverhead(b *testing.B) {
	src := corpusSource()
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Analyze(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeWith(src, Options{Obs: obs.New()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E17b: the iterative-cost claim isolated. A k-link derived chain whose
// textual order defeats the classical scan forces k fixpoint rounds
// (O(k²) total work); the SSA classifier's single Tarjan pass stays
// linear. The crossover is the paper's core speed argument.
func BenchmarkChainDepth(b *testing.B) {
	for _, k := range []int{16, 64, 256, 1024} {
		src := progen.DerivedChain(k)
		file, err := parse.File(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("unified/k=%d", k), func(b *testing.B) {
			st := buildPipeline(b, src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iv.Analyze(st.info, st.forest, st.consts)
			}
		})
		b.Run(fmt.Sprintf("classical/k=%d", k), func(b *testing.B) {
			res := cfgbuild.Build(file)
			b.ReportAllocs()
			b.ResetTimer()
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = classical.Analyze(res).Rounds
			}
			b.ReportMetric(float64(rounds), "fixpoint-rounds")
		})
	}
}

// Ablation benches: what each design choice costs and buys (DESIGN.md
// §5; results discussed in EXPERIMENTS.md).
func BenchmarkAblation(b *testing.B) {
	src := corpusSource()
	st := buildPipeline(b, src)
	variants := []struct {
		name string
		opts iv.Options
	}{
		{"full", iv.Options{}},
		{"noClosedForms", iv.Options{DisableClosedForms: true}},
		{"noExitValues", iv.Options{DisableExitValues: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				iv.AnalyzeWithOptions(st.info, st.forest, st.consts, v.opts)
			}
		})
	}
	b.Run("noSCCP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			iv.Analyze(st.info, st.forest, nil)
		}
	})
}

// E14b/E22/E25: costs of the extended dependence machinery.
func BenchmarkDependenceComposite(b *testing.B) {
	dependenceBench(b, `
cur = 1
old = 2
L1: for sweep = 1 to 10 {
    L2: for i = 1 to 48 {
        plane[cur * 64 + i] = plane[old * 64 + i] + 1
    }
    t = cur
    cur = old
    old = t
}
`)
}

func BenchmarkDependencePolynomial(b *testing.B) {
	dependenceBench(b, `
j = 0
L1: for i = 1 to 12 {
    j = j + i
    a[j] = a[j] + 1
}
`)
}

func BenchmarkPiBlocks(b *testing.B) {
	src := `
s = 0
L1: for i = 1 to 40 {
    s = s + a[i]
    b[i] = a[i]
    c[i] = s
    d[i] = b[i - 1]
    e[i] = d[i - 1]
}
`
	a, err := iv.AnalyzeProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	r := depend.Analyze(a, depend.Options{})
	l := a.LoopByLabel("L1")
	var scr depend.PiScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depend.PiBlocksScratch(r, l, &scr)
	}
}

func BenchmarkLegality(b *testing.B) {
	src := `
L1: for i = 1 to 64 {
    L2: for j = 1 to 64 {
        a[i * 100 + j] = a[i * 100 + j - 100] + a[i * 100 + j - 1]
    }
}
`
	a, err := iv.AnalyzeProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	r := depend.Analyze(a, depend.Options{})
	outer := a.LoopByLabel("L1")
	inner := a.LoopByLabel("L2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depend.Parallelizable(r, inner)
		depend.InterchangeLegal(r, outer, inner)
		if dists, ok := depend.DistanceVectors2(r, outer, inner); ok {
			depend.FindSkewedInterchange(dists, 4)
		}
	}
}
