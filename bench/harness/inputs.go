package harness

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"beyondiv/internal/cliutil"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// Program is one workload input.
type Program struct {
	Name   string
	Source string
	// Paper is the corpus entry whose expectations check this program;
	// nil for generated and example programs.
	Paper *paper.Program
}

// Generated-program counts per pass. The library workloads run a fixed
// set of generated programs, DepWorkload(k) and progen.Program(k) for
// corpus and DepWorkload(optimizeBase+k) for optimize; the seed orders
// every pass. A seed-drawn set changed which outsized programs a run met:
// from seed to seed, corpus moved its median latency and peak memory by
// a tenth and optimize its p99 by a third, over any noise of the host.
const (
	corpusDeps   = 96
	corpusGen    = 320
	optimizeDeps = 200
	// optimizeBase keeps optimize's loop nests apart from corpus's.
	optimizeBase = 1 << 32
)

var exampleNames = []string{"packing", "quickstart", "relaxation", "strength", "triangular", "wavefront"}

func paperPrograms() []Program {
	out := make([]Program, len(paper.Corpus))
	for i := range paper.Corpus {
		p := &paper.Corpus[i]
		out[i] = Program{Name: "paper/" + p.ID, Source: p.Source, Paper: p}
	}
	return out
}

// Inputs returns a library workload's programs for seed, in the order a
// pass runs them.
func Inputs(workload, root string, seed int64, small bool) ([]Program, error) {
	var progs []Program
	switch workload {
	case "corpus":
		// The traffic of ivclass/depclass/-watch and cold bivd requests:
		// many small programs, the paper's own plus generated ones.
		progs = paperPrograms()
		for _, ex := range exampleNames {
			src, err := cliutil.ReadProgram(filepath.Join(root, "examples", ex, "main.go"))
			if err != nil {
				return nil, err
			}
			progs = append(progs, Program{Name: "example/" + ex, Source: src})
		}
		nd, ng := corpusDeps, corpusGen
		if small {
			nd, ng = 2, 3
		}
		for k := int64(0); k < int64(nd); k++ {
			progs = append(progs, Program{Name: fmt.Sprintf("dep/%d", k), Source: progen.DepWorkload(k)})
		}
		gen := progen.New()
		for k := int64(0); k < int64(ng); k++ {
			progs = append(progs, Program{Name: fmt.Sprintf("progen/%d", k), Source: gen.Program(k)})
		}
	case "scale":
		// §7's linear-time claim (the E16 straight-line sweep) and the
		// parallel tier's shape (many independent loops). The sizes put
		// three programs of about 20 ms in the middle of a pass (the sweep
		// at 2048, MixedClasses(200), MutualChain(2048)), so a pass's
		// median latency is one of them. A program of a few milliseconds
		// meets a collection in some passes and not in others: as the
		// median, MutualChain(1024) or the sweep at 1024 spread 0.11 to
		// 0.15 over ten runs, where programs of 20 ms and more spread 0.07
		// to 0.10.
		sweep, chain, mixed, large := []int{128, 256, 512, 1024, 2048, 4096, 8192}, 2048, 200, 24
		if small {
			sweep, chain, mixed, large = []int{128, 512}, 64, 5, 2
		}
		for _, n := range sweep {
			progs = append(progs, Program{Name: fmt.Sprintf("sll/%d", n), Source: progen.StraightLineLoop(n)})
		}
		progs = append(progs,
			Program{Name: fmt.Sprintf("mutual/%d", chain), Source: progen.MutualChain(chain)},
			Program{Name: fmt.Sprintf("mixed/%d", mixed), Source: progen.MixedClasses(mixed)},
			Program{Name: fmt.Sprintf("large/%d", large), Source: progen.Large(large)},
		)
	case "optimize":
		// The paper's programs (induction variables for strength reduction
		// and substitution) and dependence-rich loop nests (for parmark,
		// interchange and distribution). Random progen programs are left
		// out: their validated Optimize takes from microseconds to over ten
		// seconds, so a handful of single multi-second calls set the
		// workload's numbers and moved them by a fifth between runs.
		progs = paperPrograms()
		nd := optimizeDeps
		if small {
			nd = 2
		}
		for k := int64(0); k < int64(nd); k++ {
			s := optimizeBase + k
			progs = append(progs, Program{Name: fmt.Sprintf("dep/%d", s), Source: progen.DepWorkload(s)})
		}
	default:
		return nil, fmt.Errorf("harness: %q is not a library workload", workload)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	return progs, nil
}
