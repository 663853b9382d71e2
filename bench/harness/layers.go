package harness

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"

	"beyondiv"
	"beyondiv/internal/ast"
	"beyondiv/internal/codec"
	"beyondiv/internal/engine"
	"beyondiv/internal/interp"
	obsmetrics "beyondiv/internal/obs/metrics"
	"beyondiv/internal/parse"
	"beyondiv/internal/scan"
	"beyondiv/internal/store"
	"beyondiv/internal/token"
	"beyondiv/internal/validate"
)

// Budget shares of a traced run, as fractions of Config.Seconds. The
// traced operation loop gets the largest share; the rest goes to the
// width comparison and to direct calls into layers the loop does not
// time on its own.
const (
	shareLoop     = 0.45
	shareCompare  = 0.15
	shareScan     = 0.02
	shareClone    = 0.02
	shareInterp   = 0.05
	shareCodec    = 0.06
	shareStore    = 0.06
	shareOptimize = 0.08
	shareValidate = 0.04
	// probeProgs caps how many distinct programs the probes cycle over.
	probeProgs = 256
	// probeMaxNodes keeps the largest programs out of the direct-call
	// probes: rendering the disk artifact of StraightLineLoop(8192) alone
	// takes seconds, longer than a probe's whole budget.
	probeMaxNodes = 16384
	// spanLimit caps the spans kept for the Chrome trace.
	spanLimit = 40000
	// parValidateWorkers mirrors the engine's chunk width for the
	// post-fixed-point parallel validation.
	parValidateWorkers = 4
)

var passPos = func() map[string]int {
	m := map[string]int{}
	for i, l := range analysisLayers {
		m[l] = i
	}
	return m
}()

type layerStat struct {
	ns     int64
	allocs uint64
	n      int64 // rewrites, for transform passes
}

// opAgg folds traced operations into per-layer totals. Analysis-pass
// spans of an operation's first full pass list count toward their layer;
// inside an Optimize, later analysis-pass spans are re-analysis.
type opAgg struct {
	optimize    bool
	ops         int
	layer       map[string]*layerStat
	progLayer   map[int]map[string]int64 // program → layer → self ns
	progOps     map[int]int
	progNodes   map[int]int
	reNS        int64
	reCalls     int
	rounds      int
	validations int
}

func newOpAgg(optimize bool) *opAgg {
	return &opAgg{optimize: optimize, layer: map[string]*layerStat{}, progLayer: map[int]map[string]int64{},
		progOps: map[int]int{}, progNodes: map[int]int{}}
}

func (a *opAgg) stat(name string) *layerStat {
	s := a.layer[name]
	if s == nil {
		s = &layerStat{}
		a.layer[name] = s
	}
	return s
}

func (a *opAgg) add(prog int, out *outcome, op span, kids []span) {
	a.ops++
	a.progOps[prog]++
	a.progNodes[prog] = out.nodes
	a.rounds += out.rounds
	a.validations += out.validations
	if a.progLayer[prog] == nil {
		a.progLayer[prog] = map[string]int64{}
	}
	seen, prevPos, prevAnalysis := 0, -1, false
	for _, k := range kids {
		pos, isAnalysis := passPos[k.Name]
		switch {
		case !isAnalysis:
			s := a.stat(k.Name)
			s.ns += int64(k.Self)
			s.allocs += k.Allocs
			s.n += k.N
			prevAnalysis = false
			continue
		case seen < len(passPos):
			seen++
			s := a.stat(k.Name)
			s.ns += int64(k.Self)
			s.allocs += k.Allocs
			a.progLayer[prog][k.Name] += int64(k.Self)
		default:
			if !prevAnalysis || pos <= prevPos {
				a.reCalls++
			}
			a.reNS += int64(k.Self)
		}
		prevPos, prevAnalysis = pos, true
	}
}

func (a *opAgg) perOp(v float64) float64 { return v / float64(max(a.ops, 1)) }

func (a *opAgg) usPerOp(name string) float64 {
	if s := a.layer[name]; s != nil {
		return a.perOp(float64(s.ns) / 1e3)
	}
	return 0
}

func (a *opAgg) allocsPerOp(name string) float64 {
	if s := a.layer[name]; s != nil {
		return a.perOp(float64(s.allocs))
	}
	return 0
}

// drift is the layer's nanoseconds per SSA value on the workload's
// largest program divided by the same on its smallest (E16: 1 means
// linear time).
func (a *opAgg) drift(layer string) float64 {
	lo, hi := -1, -1
	for p := range a.progOps {
		if lo < 0 || a.progNodes[p] < a.progNodes[lo] {
			lo = p
		}
		if hi < 0 || a.progNodes[p] > a.progNodes[hi] {
			hi = p
		}
	}
	if lo < 0 {
		return 0
	}
	per := func(p int) float64 {
		return float64(a.progLayer[p][layer]) / float64(a.progOps[p]) / float64(max(a.progNodes[p], 1))
	}
	if per(lo) == 0 {
		return 0
	}
	return per(hi) / per(lo)
}

// gcSample is a reading of the runtime's GC accounting.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// layerRun gathers what a traced run measured and finishes the per-layer
// metrics with the comparison stage and the direct-call probes.
type layerRun struct {
	cfg   *Config
	progs []Program // distinct programs, in seeded order
	tr    *tracer
	// analysis holds the traced analysis operations; opt the traced
	// Optimize operations (nil: the Optimize probe supplies them).
	analysis *opAgg
	opt      *opAgg
	// pairs are Optimize results for the direct validation probe.
	pairs []*engine.Optimized
	// valNS holds traced validated Optimize latencies by source, first
	// seen in valOrder.
	valNS    map[string][]float64
	valOrder []string
	gc       gcSample
	gcOps    int
	// cache, alias and structHit are the engine-cache ratios (serve only).
	cache, alias, structHit float64
}

// validated records one traced validated Optimize latency of src.
func (lr *layerRun) validated(src string, ns float64) {
	if _, ok := lr.valNS[src]; !ok {
		lr.valOrder = append(lr.valOrder, src)
	}
	lr.valNS[src] = append(lr.valNS[src], ns)
}

// keepOptimized takes a traced Optimize loop's results for the
// validation probes.
func (lr *layerRun) keepOptimized(progs []Program, ls *loopStats) {
	for _, out := range ls.outcomes {
		lr.pairs = append(lr.pairs, out.opt)
	}
	for _, p := range progs {
		for _, ms := range ls.perProg[p.Name] {
			lr.validated(p.Source, ms*1e6)
		}
	}
}

func (c *Config) share(f float64) time.Duration {
	return time.Duration(f * c.Seconds * float64(time.Second))
}

func traceLibrary(cfg *Config, r *Result, progs []Program, optimize bool, check func(Program, *outcome) error) error {
	lr := &layerRun{cfg: cfg, progs: progs, tr: newTracer(spanLimit), valNS: map[string][]float64{}}
	agg := newOpAgg(optimize)
	eng := tracedEngine(lr.tr, 0, false, nil)
	g0 := readGC()
	ls := loop{seed: cfg.Seed, progs: progs, op: engineOp(eng, optimize), check: check, budget: cfg.share(shareLoop),
		tr: lr.tr, agg: agg, keep: optimize}.run(r)
	g1 := readGC()
	lr.gc = gcSample{g1.gcCPU - g0.gcCPU, g1.totalCPU - g0.totalCPU, g1.cycles - g0.cycles}
	lr.gcOps = len(ls.lat)
	lr.analysis = agg
	if optimize {
		lr.opt = agg
		lr.keepOptimized(progs, ls)
	}
	if len(ls.lat) > 0 {
		r.info("traced.latency_p50_ms", "ms", median(ls.lat), len(ls.lat))
		r.info("traced.latency_mean_ms", "ms", mean(ls.lat), len(ls.lat))
	}
	return lr.finish(r)
}

// finish runs the comparison stage and the probes, then sets every
// PerLayer metric and writes the Chrome trace.
func (lr *layerRun) finish(r *Result) error {
	cfg := lr.cfg
	progs := lr.progs
	if len(progs) > probeProgs {
		progs = progs[:probeProgs]
	}
	live, err := analyzeLive(progs)
	if err != nil {
		return err
	}
	a := lr.analysis
	for _, l := range analysisLayers {
		r.set(l+".us_per_op", a.usPerOp(l), a.ops)
		r.set(l+".allocs_per_op", a.allocsPerOp(l), a.ops)
	}
	for _, l := range driftLayers {
		r.set(l+".drift", a.drift(l), len(a.progOps))
	}
	r.set("gc.cpu_frac", lr.gc.gcCPU/max(lr.gc.totalCPU, 1e-9), lr.gcOps)
	r.set("gc.cycles_per_op", float64(lr.gc.cycles)/float64(max(lr.gcOps, 1)), lr.gcOps)
	r.set("cache.hit_ratio", lr.cache, 1)
	r.set("store.alias_hit_ratio", lr.alias, 1)
	r.set("store.struct_hit_ratio", lr.structHit, 1)

	if err := lr.compare(r, live); err != nil {
		return err
	}
	// The probes visit programs smallest first, so a budget that runs out
	// early still covers the common sizes.
	small := slices.Clone(live)
	slices.SortStableFunc(small, func(a, b liveProg) int { return a.nodes() - b.nodes() })
	for len(small) > 1 && small[len(small)-1].nodes() > probeMaxNodes {
		small = small[:len(small)-1]
	}
	probeScan(r, small, cfg.share(shareScan))
	probeClone(r, small, cfg.share(shareClone))
	probeInterp(r, small, cfg.share(shareInterp))
	if err := probeCodec(r, small, cfg.share(shareCodec)); err != nil {
		return err
	}
	if err := lr.probeStore(r, small); err != nil {
		return err
	}
	if err := lr.probeOptimize(r, small); err != nil {
		return err
	}
	o := lr.opt
	r.set("engine.reanalyze_us_per_op", o.perOp(float64(o.reNS)/1e3), o.ops)
	r.set("engine.reanalyze_calls_per_op", o.perOp(float64(o.reCalls)), o.ops)
	r.set("engine.rounds_per_op", o.perOp(float64(o.rounds)), o.ops)
	for _, p := range xformPasses {
		n := int64(0)
		if s := o.layer["xform."+p]; s != nil {
			n = s.n
		}
		r.set("xform."+p+".us_per_op", o.usPerOp("xform."+p), o.ops)
		r.set("xform."+p+".rewrites_per_op", o.perOp(float64(n)), o.ops)
	}
	r.set("validate.calls_per_op", o.perOp(float64(o.validations)), o.ops)
	if err := probeValidate(r, lr.pairs, cfg.share(shareValidate)); err != nil {
		return err
	}

	if cfg.TraceFile != "" {
		meta := map[string]any{"workload": r.Workload, "seed": r.Seed, "host": r.Host}
		if err := lr.tr.writeChrome(cfg.TraceFile, meta); err != nil {
			return fmt.Errorf("chrome trace: %w", err)
		}
	}
	return nil
}

// liveProg is a program analyzed through the facade, untimed, for the
// direct-call probes.
type liveProg struct {
	Program
	prog *beyondiv.Program
	file *ast.File
}

func (lp liveProg) nodes() int { return lp.prog.SSA.Func.NumValues() }

func analyzeLive(progs []Program) ([]liveProg, error) {
	an := beyondiv.NewAnalyzer(beyondiv.Options{})
	out := make([]liveProg, 0, len(progs))
	for _, p := range progs {
		prog, err := an.Analyze(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		file, err := parse.File(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		out = append(out, liveProg{Program: p, prog: prog, file: file})
	}
	return out, nil
}

// cycle calls fn over n items in order, round after round, until budget
// is spent (at least once). It returns the number of calls.
func cycle(n int, budget time.Duration, fn func(i int)) int {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < budget {
		fn(calls % n)
		calls++
	}
	return calls
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// compare alternates passes over the programs through four pipelines:
// the untraced facade and the traced engine (the tracing overhead), and
// traced engines at Parallel 1 and 2 (the intra-run parallel tier).
func (lr *layerRun) compare(r *Result, live []liveProg) error {
	facade := facadeOp(beyondiv.NewAnalyzer(beyondiv.Options{}), false)
	trB := newTracer(0)
	traced := engineOp(tracedEngine(trB, 0, false, nil), false)
	width := [2]struct {
		tr  *tracer
		agg *opAgg
		reg *obsmetrics.Registry
		op  opFunc
	}{}
	for i := range width {
		width[i].tr, width[i].agg, width[i].reg = newTracer(0), newOpAgg(false), obsmetrics.NewRegistry()
		width[i].op = engineOp(tracedEngine(width[i].tr, i+1, false, width[i].reg), false)
	}
	var facadeNS, tracedNS time.Duration
	pass := func(v int) error {
		for i, p := range live {
			var err error
			switch v {
			case 0:
				t0 := time.Now()
				_, err = facade(p.Source)
				facadeNS += time.Since(t0)
			case 1:
				s, _ := trB.runOp("analyze", func() { _, err = traced(p.Source) })
				tracedNS += s.End - s.Start
			default:
				w := &width[v-2]
				var out *outcome
				s, kids := w.tr.runOp("analyze", func() { out, err = w.op(p.Source) })
				if err == nil {
					w.agg.add(i, out, s, kids)
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		return nil
	}
	budget := lr.cfg.share(shareCompare)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for k := 0; k < 4; k++ {
			if err := pass((round + k) % 4); err != nil {
				return err
			}
		}
	}
	r.set("trace.overhead_frac", float64(tracedNS)/float64(facadeNS)-1, width[1].agg.ops)
	speedup := func(layer string) float64 {
		one, two := width[0].agg.layer[layer], width[1].agg.layer[layer]
		if one == nil || two == nil || two.ns == 0 {
			return 0
		}
		return float64(one.ns) / float64(two.ns)
	}
	r.set("par.iv_speedup", speedup("iv"), width[1].agg.ops)
	r.set("par.depend_speedup", speedup("depend"), width[1].agg.ops)
	c := width[1].reg.Snapshot().Counters
	ops := float64(max(width[1].agg.ops, 1))
	r.set("par.classify_units_per_op", float64(c["engine.par.classify.units"])/ops, width[1].agg.ops)
	r.set("par.depend_pairs_per_op", float64(c["engine.par.depend.pairs"])/ops, width[1].agg.ops)
	return nil
}

func probeScan(r *Result, live []liveProg, budget time.Duration) {
	var d time.Duration
	var tokens []token.Token
	allocs := newAllocCounter()
	a0 := allocs.read()
	calls := cycle(len(live), budget, func(i int) {
		t0 := time.Now()
		tokens, _ = scan.AllInto(live[i].Source, tokens)
		d += time.Since(t0)
	})
	n := allocs.read() - a0
	r.set("scan.us_per_op", us(d)/float64(calls), calls)
	r.set("scan.allocs_per_op", float64(n)/float64(calls), calls)
}

func probeClone(r *Result, live []liveProg, budget time.Duration) {
	var d time.Duration
	calls := cycle(len(live), budget, func(i int) {
		t0 := time.Now()
		live[i].prog.SSA.Clone(nil)
		d += time.Since(t0)
	})
	r.set("engine.clone_us_per_op", us(d)/float64(calls), calls)
}

func probeInterp(r *Result, live []liveProg, budget time.Duration) {
	var ssaD, astD time.Duration
	cfg := interp.Config{Params: runParams}
	calls := cycle(len(live), budget, func(i int) {
		t0 := time.Now()
		interp.RunSSA(live[i].prog.SSA, cfg)
		t1 := time.Now()
		interp.RunAST(live[i].file, cfg)
		ssaD += t1.Sub(t0)
		astD += time.Since(t1)
	})
	r.set("interp.ssa_us_per_run", us(ssaD)/float64(calls), calls)
	r.set("interp.ast_us_per_run", us(astD)/float64(calls), calls)
}

// artifactOf renders the cacheable artifact from the public Program
// renderers, the way the facade's persistence bridge does.
func artifactOf(p *beyondiv.Program) (*codec.Artifact, error) {
	js, err := json.Marshal(p.ReportData())
	if err != nil {
		return nil, err
	}
	a := &codec.Artifact{
		Classification: p.ClassificationReport(),
		HasDeps:        p.Deps != nil,
		Dependences:    p.DependenceReport(),
		ExplainDeps:    p.ExplainAllDeps(),
		ReportJSON:     string(js),
	}
	for _, key := range p.IV.ExplainKeys() {
		a.Explains = append(a.Explains, codec.ExplainEntry{Name: key, Text: p.Explain(key)})
	}
	return a, nil
}

// probeCodec times the codec's write and read path per program: the
// structural hash, the α-rename twin (table, rewritten source and the
// twin's analysis), encoding and decoding.
func probeCodec(r *Result, live []liveProg, budget time.Duration) error {
	twinAn := beyondiv.NewAnalyzer(beyondiv.Options{})
	var hashD, twinD, encD, decD time.Duration
	var blobBytes int
	var firstErr error
	calls := cycle(len(live), budget, func(i int) {
		lp := live[i]
		t0 := time.Now()
		sum, names := codec.StructuralHash(lp.file)
		t1 := time.Now()
		twinNames := codec.RenameTable(names)
		var twinProg *beyondiv.Program
		var twinSrc string
		if twinNames != nil {
			twinSrc = codec.RewriteSource(lp.file.String(), names, twinNames)
			twinProg, _ = twinAn.Analyze(twinSrc)
		}
		t2 := time.Now()
		hashD += t1.Sub(t0)
		twinD += t2.Sub(t1)

		art, err := artifactOf(lp.prog)
		if err != nil {
			firstErr = fmt.Errorf("%s: %w", lp.Name, err)
			return
		}
		var twin *codec.Artifact
		if twinProg != nil {
			if tf, err := parse.File(twinSrc); err == nil {
				if tsum, tnames := codec.StructuralHash(tf); tsum == sum && slices.Equal(tnames, twinNames) {
					twin, _ = artifactOf(twinProg)
				}
			}
		}
		if twin == nil {
			twinNames = nil
		}
		t3 := time.Now()
		blob := codec.Encode(art, names, twin, twinNames)
		t4 := time.Now()
		if _, err := codec.Decode(blob, names); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: decode: %w", lp.Name, err)
		}
		encD += t4.Sub(t3)
		decD += time.Since(t4)
		blobBytes += len(blob)
	})
	n := float64(calls)
	r.set("codec.hash_us_per_op", us(hashD)/n, calls)
	r.set("codec.twin_us_per_op", us(twinD)/n, calls)
	r.set("codec.encode_us_per_op", us(encD)/n, calls)
	r.set("codec.decode_us_per_op", us(decD)/n, calls)
	r.set("codec.blob_bytes", float64(blobBytes)/n, calls)
	return firstErr
}

// probeStore times direct Put and Get of each program's encoded
// artifact on a scratch store, and the cost the disk tier adds to a cold
// Analyze (with CacheDir minus without).
func (lr *layerRun) probeStore(r *Result, live []liveProg) error {
	dir, err := lr.cfg.scratchDir("store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "direct"), 0)
	if err != nil {
		return err
	}
	// Blobs are encoded on first visit, untimed but inside the budget.
	blobs := make([][]byte, len(live))
	budget := lr.cfg.share(shareStore)
	var putD, getD time.Duration
	var probeErr error
	calls := cycle(len(live), budget/3, func(i int) {
		lp := live[i]
		if blobs[i] == nil {
			art, err := artifactOf(lp.prog)
			if err != nil {
				probeErr = err
				return
			}
			_, names := codec.StructuralHash(lp.file)
			blobs[i] = codec.Encode(art, names, nil, nil)
		}
		key := sha256.Sum256([]byte(lp.Source))
		t0 := time.Now()
		_, err := st.Put(key, blobs[i])
		t1 := time.Now()
		_, ok := st.Get(key)
		putD += t1.Sub(t0)
		getD += time.Since(t1)
		if err != nil && probeErr == nil {
			probeErr = err
		}
		if !ok && probeErr == nil {
			probeErr = fmt.Errorf("store: %s missing right after Put", lp.Name)
		}
	})
	if probeErr != nil {
		return probeErr
	}
	r.set("store.put_us_per_op", us(putD)/float64(calls), calls)
	r.set("store.get_us_per_op", us(getD)/float64(calls), calls)

	// Every program goes through a bare analyzer and one writing a store
	// it has never seen (a fresh pair per round), so every write is cold.
	var with, without time.Duration
	var disk, bare *beyondiv.Analyzer
	round := 0
	ops := cycle(len(live), budget*2/3, func(i int) {
		if i == 0 {
			round++
			disk = beyondiv.NewAnalyzer(beyondiv.Options{CacheDir: filepath.Join(dir, fmt.Sprintf("cold%d", round))})
			bare = beyondiv.NewAnalyzer(beyondiv.Options{})
		}
		t0 := time.Now()
		_, err1 := bare.Analyze(live[i].Source)
		t1 := time.Now()
		_, err2 := disk.Analyze(live[i].Source)
		without += t1.Sub(t0)
		with += time.Since(t1)
		if err := errors.Join(err1, err2); err != nil && probeErr == nil {
			probeErr = fmt.Errorf("%s: %w", live[i].Name, err)
		}
	})
	r.set("store.write_overhead_us_per_op", us(with-without)/float64(ops), ops)
	return probeErr
}

// probeOptimize measures validated and unvalidated Optimize on the
// workload's programs, smallest first: it supplies the transform and
// re-analysis spans when the workload's own operations do not run
// Optimize, and the validation cost (validated minus unvalidated
// latency) always.
func (lr *layerRun) probeOptimize(r *Result, live []liveProg) error {
	if lr.opt == nil {
		lr.opt = newOpAgg(true)
		op := engineOp(tracedEngine(lr.tr, 0, false, nil), true)
		budget := lr.cfg.share(shareOptimize)
		start := time.Now()
		for i, lp := range live {
			if i > 0 && time.Since(start) > budget {
				break
			}
			var out *outcome
			var err error
			s, kids := lr.tr.runOp("optimize", func() { out, err = op(lp.Source) })
			if err != nil {
				return fmt.Errorf("optimize %s: %w", lp.Name, err)
			}
			lr.opt.add(i, out, s, kids)
			lr.pairs = append(lr.pairs, out.opt)
			lr.validated(lp.Source, float64((s.End - s.Start).Nanoseconds()))
		}
	}
	trSkip := newTracer(0)
	skip := engineOp(tracedEngine(trSkip, 0, true, nil), true)
	var valNS, skipNS []float64
	for _, src := range lr.valOrder {
		var err error
		s, _ := trSkip.runOp("optimize", func() { _, err = skip(src) })
		if err != nil {
			return fmt.Errorf("optimize without validation: %w", err)
		}
		valNS = append(valNS, mean(lr.valNS[src]))
		skipNS = append(skipNS, float64((s.End - s.Start).Nanoseconds()))
	}
	r.set("validate.us_per_op", (mean(valNS)-mean(skipNS))/1e3, len(valNS))
	return nil
}

// probeValidate calls the translation validators directly on Optimize
// results, smallest first. The engine already validated every pair, so a
// failure here means the probe called the validators differently.
func probeValidate(r *Result, pairs []*engine.Optimized, budget time.Duration) error {
	order := slices.Clone(pairs)
	slices.SortStableFunc(order, func(a, b *engine.Optimized) int {
		return a.Original.SSA.Func.NumValues() - b.Original.SSA.Func.NumValues()
	})
	var funcsD, parD time.Duration
	calls := 0
	start := time.Now()
	for _, res := range order {
		if calls > 0 && time.Since(start) > budget {
			break
		}
		opts := validate.Options{}
		for _, s := range res.Stats {
			if s.Name == "interchange" || s.Name == "distribute" {
				opts.Order = validate.PerCellOrder
			}
		}
		t0 := time.Now()
		err1 := validate.Funcs(res.Original.SSA, res.State.SSA, opts)
		t1 := time.Now()
		err2 := validate.Parallel(res.State.SSA, res.State.File, engine.ParMarksOf(res.State), parValidateWorkers, validate.Options{})
		funcsD += t1.Sub(t0)
		parD += time.Since(t1)
		calls++
		if err := errors.Join(err1, err2); err != nil {
			return fmt.Errorf("direct validation of an engine-validated result: %w", err)
		}
	}
	n := float64(max(calls, 1))
	r.set("validate.funcs_us_per_call", us(funcsD)/n, calls)
	r.set("validate.parallel_us_per_call", us(parD)/n, calls)
	return nil
}
