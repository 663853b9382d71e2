package harness

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"time"

	"beyondiv"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
	"beyondiv/internal/ssa"
)

// outcome is what one operation produced, whichever surface ran it.
type outcome struct {
	iv   *iv.Analysis
	deps *depend.Result
	// ssa is the analyzed program, or the optimized one for Optimize.
	ssa *ssa.Info
	// nodes is the SSA value count of the analyzed (original) program.
	nodes       int
	rounds      int
	validations int
	// opt is the engine's full result, kept by traced Optimize calls for
	// the direct validation probe.
	opt *engine.Optimized
}

type opFunc func(src string) (*outcome, error)

// facadeOp runs operations through the public beyondiv.Analyzer.
func facadeOp(an *beyondiv.Analyzer, optimize bool) opFunc {
	if optimize {
		return func(src string) (*outcome, error) {
			res, err := an.Optimize(src)
			if err != nil {
				return nil, err
			}
			p := res.Program
			return &outcome{iv: p.IV, deps: p.Deps, ssa: p.SSA, nodes: res.Original.SSA.Func.NumValues(),
				rounds: res.Rounds, validations: res.Validations}, nil
		}
	}
	return func(src string) (*outcome, error) {
		p, err := an.Analyze(src)
		if err != nil {
			return nil, err
		}
		return &outcome{iv: p.IV, deps: p.Deps, ssa: p.SSA, nodes: p.SSA.Func.NumValues()}, nil
	}
}

// engineOp runs operations through a (traced) engine built from the
// facade's pass lists.
func engineOp(e *engine.Engine, optimize bool) opFunc {
	if optimize {
		return func(src string) (*outcome, error) {
			res, err := e.Optimize(src)
			if err != nil {
				return nil, err
			}
			st := res.State
			return &outcome{iv: iv.AnalysisOf(st), deps: depend.ResultOf(st), ssa: st.SSA,
				nodes: res.Original.SSA.Func.NumValues(), rounds: res.Rounds, validations: res.Validations, opt: res}, nil
		}
	}
	return func(src string) (*outcome, error) {
		st, err := e.Analyze(src)
		if err != nil {
			return nil, err
		}
		return &outcome{iv: iv.AnalysisOf(st), deps: depend.ResultOf(st), ssa: st.SSA, nodes: st.SSA.Func.NumValues()}, nil
	}
}

// loopStats is what a measured loop over whole passes observed.
type loopStats struct {
	lat       []float64   // per-operation latency, ms
	passLat   [][]float64 // the same, by pass
	passBusy  []float64   // summed operation latency per pass, s
	passNodes []int       // SSA values analyzed per pass
	perProg   map[string][]float64
	nodes     map[string]int
	outcomes  []*outcome // first pass's successful outcomes, when kept
	peakMB    []float64  // each pass's peak resident set, when measured
	passCal   []float64  // the calibration run before each pass, ms, when measured
}

// loop is one measured loop: whole passes over progs while another pass
// still fits in budget (always at least one). Each operation is timed
// alone; its output is checked after the timer stops. The first pass
// runs progs in the given order; later passes reshuffle it from seed, so
// no program always follows the same neighbour (whose garbage it would
// otherwise inherit in every pass).
type loop struct {
	seed   int64
	progs  []Program
	op     opFunc
	check  func(Program, *outcome) error
	budget time.Duration
	// With a tracer, every operation is a traced op folded into agg.
	tr  *tracer
	agg *opAgg
	// keep retains the first pass's outcomes.
	keep bool
	// measured marks the untraced loop the end-to-end metrics come from.
	// Each of its passes follows a calibration (calibrate.go) and starts
	// from a heap returned to the operating system, so the pass's peak
	// resident set, also recorded, is what the pass itself needs rather
	// than what earlier passes left mapped.
	measured bool
}

func (l loop) run(r *Result) *loopStats {
	ls := &loopStats{perProg: map[string][]float64{}, nodes: map[string]int{}}
	opName := "analyze"
	if l.agg != nil && l.agg.optimize {
		opName = "optimize"
	}
	rng := rand.New(rand.NewSource(l.seed))
	order := make([]int, len(l.progs))
	for i := range order {
		order[i] = i
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass > 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		if l.measured {
			ls.passCal = append(ls.passCal, calibrate())
			debug.FreeOSMemory()
			resetPeakRSS()
		}
		passStart := time.Now()
		busy, nodes := 0.0, 0
		var passLat []float64
		for _, i := range order {
			p := l.progs[i]
			var out *outcome
			var err error
			var d time.Duration
			if l.tr != nil {
				s, kids := l.tr.runOp(opName, func() { out, err = l.op(p.Source) })
				d = s.End - s.Start
				if err == nil {
					l.agg.add(i, out, s, kids)
				}
			} else {
				t0 := time.Now()
				out, err = l.op(p.Source)
				d = time.Since(t0)
			}
			r.Attempted++
			if err != nil {
				r.fail("%s: %v", p.Name, err)
				continue
			}
			if err := l.check(p, out); err != nil {
				r.fail("%v", err)
			}
			ms := float64(d.Nanoseconds()) / 1e6
			passLat = append(passLat, ms)
			ls.perProg[p.Name] = append(ls.perProg[p.Name], ms)
			busy += d.Seconds()
			nodes += out.nodes
			ls.nodes[p.Name] = out.nodes
			if l.keep && pass == 0 {
				ls.outcomes = append(ls.outcomes, out)
			}
		}
		if l.measured {
			if mb, err := peakRSSMB(os.Getpid()); err == nil {
				ls.peakMB = append(ls.peakMB, mb)
			}
		}
		ls.lat = append(ls.lat, passLat...)
		ls.passLat = append(ls.passLat, passLat)
		ls.passBusy = append(ls.passBusy, busy)
		ls.passNodes = append(ls.passNodes, nodes)
		if time.Since(start)+time.Since(passStart) > l.budget {
			return ls
		}
	}
}

// setUp constructs the facade analyzer and runs one warm-up pass, at
// least five times and until a second has been spent; it returns the
// last analyzer, every set-up's duration and the calibration run after
// each.
func setUp(progs []Program, optimize bool) (an *beyondiv.Analyzer, setups, cals []float64, err error) {
	start := time.Now()
	for len(setups) < 5 || (time.Since(start) < time.Second && len(setups) < 15) {
		t0 := time.Now()
		an = beyondiv.NewAnalyzer(beyondiv.Options{})
		op := facadeOp(an, optimize)
		for _, p := range progs {
			if _, err := op(p.Source); err != nil {
				return nil, nil, nil, fmt.Errorf("warm-up %s: %w", p.Name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		cals = append(cals, calibrate())
	}
	return an, setups, cals, nil
}

func runLibrary(workload string, cfg *Config, r *Result) error {
	progs, err := Inputs(workload, cfg.Root, cfg.Seed, cfg.Small)
	if err != nil {
		return err
	}
	optimize := workload == "optimize"
	var check func(Program, *outcome) error
	if optimize {
		o, err := newInterpOracle(progs)
		if err != nil {
			return err
		}
		check = func(p Program, out *outcome) error { return o.check(p, out.ssa) }
	} else {
		o, err := newReportOracle(progs, cfg.Golden)
		if err != nil {
			return err
		}
		check = o.check
	}
	an, setups, setupCals, err := setUp(progs, optimize)
	if err != nil {
		return err
	}
	if cfg.Trace {
		return traceLibrary(cfg, r, progs, optimize, check)
	}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	ls := loop{seed: cfg.Seed, progs: progs, op: facadeOp(an, optimize), check: check, budget: budget,
		measured: true}.run(r)
	if len(ls.lat) == 0 {
		return fmt.Errorf("no operation succeeded: %v", r.Failures)
	}
	// Each pass's values, and the factor that calibrates its times by the
	// calibration run just before it; a throughput divides by the factor.
	var p50, p99, tput, k, kInv []float64
	for i, lat := range ls.passLat {
		if len(lat) > 0 {
			p50 = append(p50, median(lat))
			p99 = append(p99, quantile(lat, 0.99))
			tput = append(tput, float64(len(lat))/ls.passBusy[i])
			k = append(k, calScale(ls.passCal[i]))
			kInv = append(kInv, 1/calScale(ls.passCal[i]))
		}
	}
	kSetup := make([]float64, len(setupCals))
	for i, c := range setupCals {
		kSetup[i] = calScale(c)
	}
	r.timing("latency_p50_ms", p50, k, len(ls.lat))
	r.timing("latency_p99_ms", p99, k, len(ls.lat))
	r.timing("throughput_per_s", tput, kInv, len(ls.lat))
	r.timing("setup_s", setups, kSetup, len(setups))
	r.info("calibration_ms", "ms", median(ls.passCal), len(ls.passCal))
	if len(ls.peakMB) == 0 {
		return fmt.Errorf("no resident-set reading from /proc")
	}
	r.set("rss_mb", median(ls.peakMB), len(ls.peakMB))
	r.info("peak_rss_mb", "MB", slices.Max(ls.peakMB), len(ls.peakMB))

	perNode := make([]float64, len(ls.passBusy))
	for i := range ls.passBusy {
		perNode[i] = ls.passBusy[i] * 1e9 / float64(ls.passNodes[i])
	}
	r.info("passes", "count", float64(len(ls.passBusy)), len(ls.passBusy))
	r.info("pass_s", "s", median(ls.passBusy), len(ls.passBusy))
	r.info("ns_per_node", "ns", median(perNode), len(perNode))
	if workload != "corpus" {
		// Few enough programs for a row each.
		for _, p := range progs {
			if lat := ls.perProg[p.Name]; len(lat) > 0 {
				r.info(p.Name+".ms", "ms", median(lat), len(lat))
				r.info(p.Name+".ns_per_node", "ns", median(lat)*1e6/float64(ls.nodes[p.Name]), len(lat))
			}
		}
	}
	return nil
}
