package cliutil

import (
	"flag"

	"beyondiv"
)

// ParallelFlag is the shared -parallel flag: the intra-run fan-out
// width threaded into beyondiv.Options.Parallel. One analysis with
// enough dependence pairs splits the pair sweep across this many
// workers; results are bit-identical at every width.
// Register before flag.Parse and thread into the analysis with Apply.
type ParallelFlag struct {
	N int
}

// Register installs -parallel on the default flag set. The default is
// auto (0): one worker per CPU for a single input, and — so batch and
// intra-run parallelism compose instead of oversubscribing — the width
// is divided by the number of concurrent -jobs workers (floor 1) when
// several inputs analyze at once. An explicit width is honored as
// given.
func (p *ParallelFlag) Register() {
	flag.IntVar(&p.N, "parallel", 0,
		"split each analysis's dependence-pair sweep across `n` workers (0 = one per CPU, divided across -jobs workers in batch runs; 1 = sequential; results identical at every width)")
}

// Apply threads the flag into opts.
func (p *ParallelFlag) Apply(opts *beyondiv.Options) {
	opts.Parallel = p.N
}
