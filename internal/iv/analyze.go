package iv

import (
	"fmt"
	"slices"
	"strings"

	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
	"beyondiv/internal/obs"
	"beyondiv/internal/scc"
	"beyondiv/internal/sccp"
	"beyondiv/internal/scratch"
	"beyondiv/internal/ssa"
)

// Analysis is the induction-variable classification of a whole program.
type Analysis struct {
	SSA    *ssa.Info
	Forest *loops.Forest
	Consts *sccp.Result

	opts   Options
	budget *guard.Budget
	scr    *classifyScratch // live only while AnalyzeWithOptions runs
	byLoop map[*loops.Loop]map[*ir.Value]*Classification
	trips  map[*loops.Loop]*TripCount
	exits  map[*ir.Value]exitInfo // exit-value cache (empty entries cached too)

	// Lookup indexes built once at construction; first definition wins
	// for duplicate names, matching the old linear-scan order.
	byName  map[string]*ir.Value
	byLabel map[string]*loops.Loop
}

// Options toggle parts of the analysis off, for the ablation studies in
// EXPERIMENTS.md. The zero value enables everything.
type Options struct {
	// DisableClosedForms skips the §4.3 simulation + Vandermonde solve:
	// polynomial/geometric classes keep their kind and order but lose
	// their rational coefficients.
	DisableClosedForms bool
	// DisableExitValues skips §5.3's exit-value propagation: values
	// computed by inner loops look unknown to the enclosing loop, so
	// nested families (Figures 7-9) disappear.
	DisableExitValues bool
	// Obs, when non-nil, records phase spans, classification counters
	// and per-decision provenance events. Nil disables telemetry at no
	// cost.
	Obs *obs.Recorder
	// Limits bounds the classifier's work: loop-nest depth and a step
	// budget charged per classified node. Ceiling hits panic with a
	// *guard.LimitError, contained at the facade. The zero value is
	// unchecked.
	Limits guard.Limits
	// Scratch, when non-nil, is the per-run arena the classifier draws
	// its working tables from; the engine threads one per worker. Nil
	// allocates fresh tables (one-shot runs). Like Obs and Limits it is
	// excluded from Fingerprint — scratch reuse cannot change results —
	// and the analysis drops its reference before returning, so a
	// cached Analysis never pins (or shares) an arena.
	Scratch *scratch.Arena
}

// Fingerprint identifies the option fields that change analysis
// results, for content-addressed caching: two runs whose fingerprints
// and sources agree produce identical classifications. Obs and Limits
// are excluded — telemetry never changes results, and limits are
// fingerprinted by the engine itself.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("closedforms:%t,exitvalues:%t", !o.DisableClosedForms, !o.DisableExitValues)
}

// Analyze classifies every scalar in every loop, innermost first
// (paper §5.3). The sccp result may be nil; constants then stay
// symbolic.
func Analyze(info *ssa.Info, forest *loops.Forest, consts *sccp.Result) *Analysis {
	return AnalyzeWithOptions(info, forest, consts, Options{})
}

// AnalyzeWithOptions is Analyze with ablation switches.
func AnalyzeWithOptions(info *ssa.Info, forest *loops.Forest, consts *sccp.Result, opts Options) *Analysis {
	a := &Analysis{
		SSA:    info,
		Forest: forest,
		Consts: consts,
		opts:   opts,
		byLoop: map[*loops.Loop]map[*ir.Value]*Classification{},
		trips:  map[*loops.Loop]*TripCount{},
		exits:  map[*ir.Value]exitInfo{},

		byName:  map[string]*ir.Value{},
		byLabel: map[string]*loops.Loop{},
	}
	for _, b := range info.Func.Blocks {
		for _, v := range b.Values {
			if v.Name != "" {
				if _, ok := a.byName[v.Name]; !ok {
					a.byName[v.Name] = v
				}
			}
		}
	}
	for _, l := range forest.Loops {
		if l.Label != "" {
			if _, ok := a.byLabel[l.Label]; !ok {
				a.byLabel[l.Label] = l
			}
		}
	}
	a.budget = opts.Limits.Budget("iv")
	if opts.Scratch != nil {
		a.scr = scratch.Get[classifyScratch](&opts.Scratch.IV)
	} else {
		a.scr = &classifyScratch{}
	}
	span := opts.Obs.Phase("iv")
	for _, l := range forest.InnerToOuter() {
		a.classifyLoop(l)
	}
	span.End()
	// Detach the arena: the Analysis outlives the run (it is cached and
	// shared across goroutines), the scratch tables do not.
	a.scr = nil
	a.opts.Scratch = nil
	return a
}

// classifyLoop runs the full per-loop step — depth check,
// classification, trip count — under its own "loop L" span.
func (a *Analysis) classifyLoop(l *loops.Loop) {
	guard.Check("iv", "loop depth", int64(l.Depth), int64(a.opts.Limits.MaxLoopDepth))
	rec := a.opts.Obs
	var ls *obs.Span
	if rec != nil {
		ls = rec.Phase("loop " + l.Label)
	}
	a.analyzeLoop(l)
	a.trips[l] = a.computeTripCount(l)
	if a.trips[l] != nil {
		rec.Count("iv.tripcounts.derived")
	}
	ls.End()
}

// Obs returns the recorder the analysis was configured with (nil when
// telemetry is off); transformations downstream of the analysis use it
// to keep counting into the same registry.
func (a *Analysis) Obs() *obs.Recorder { return a.opts.Obs }

// ClassOf returns the classification of v with respect to loop l.
// Values defined inside nested loops are seen through their exit values;
// values defined outside l are invariant.
func (a *Analysis) ClassOf(l *loops.Loop, v *ir.Value) *Classification {
	if m := a.byLoop[l]; m != nil {
		if c, ok := m[v]; ok {
			return c
		}
	}
	return a.classOfOperand(l, v)
}

// TripCount returns the trip count information for l.
func (a *Analysis) TripCount(l *loops.Loop) *TripCount { return a.trips[l] }

// Loops returns the classification map of one loop (direct members
// only); the map must not be modified.
func (a *Analysis) LoopClassifications(l *loops.Loop) map[*ir.Value]*Classification {
	return a.byLoop[l]
}

// classOfOperand classifies a value used from loop l but not defined
// directly in it.
func (a *Analysis) classOfOperand(l *loops.Loop, v *ir.Value) *Classification {
	inner := a.Forest.InnermostContaining(v.Block)
	switch {
	case inner == l:
		// Defined directly in l but missing from the map (unreachable
		// from the classification graph): unknown.
		if m := a.byLoop[l]; m != nil {
			if c, ok := m[v]; ok {
				return c
			}
		}
		return unknown()
	case inner != nil && l != nil && l.ContainsLoop(inner):
		// Defined in a nested loop: visible only through its exit value.
		e := a.exitValue(v)
		if e.expr == nil {
			return unknown()
		}
		// Prove the symbolic trip-count guards in this loop's context.
		for _, g := range e.guards {
			lo, _, hasLo, _ := boundsOf(a.exprClass(l, g))
			if !hasLo || lo.Sign() < 0 {
				return unknown()
			}
		}
		c := a.exprClass(l, e.expr)
		if c.Rule == RuleNone {
			c.Rule = RuleExitValue
		}
		return c
	default:
		// Defined outside l: loop-invariant.
		return a.leafClass(l, v)
	}
}

// leafClass classifies a loop-external value: a constant when sccp
// proved one, a symbolic invariant atom otherwise.
func (a *Analysis) leafClass(l *loops.Loop, v *ir.Value) *Classification {
	if a.Consts != nil {
		if c, ok := a.Consts.Const(v); ok {
			cls := invariant(l, IntExpr(c))
			cls.Rule = RuleInvariantConst
			return cls
		}
	}
	if v.Op == ir.OpConst {
		cls := invariant(l, IntExpr(v.Const))
		cls.Rule = RuleInvariantConst
		return cls
	}
	cls := invariant(l, VarExpr(v))
	cls.Rule = RuleInvariantLeaf
	return cls
}

// leafExpr is the affine form of a loop-external value. Copy chains are
// chased so that reports read like the paper's ("(L7, n1, c1+k1)" rather
// than the copy j1 of n1).
func (a *Analysis) leafExpr(v *ir.Value) *Expr {
	for v.Op == ir.OpCopy {
		v = v.Args[0]
	}
	if a.Consts != nil {
		if c, ok := a.Consts.Const(v); ok {
			return IntExpr(c)
		}
	}
	if v.Op == ir.OpConst {
		return IntExpr(v.Const)
	}
	return VarExpr(v)
}

// exprClass folds an affine Expr into a classification in loop l by
// summing the classifications of its terms.
func (a *Analysis) exprClass(l *loops.Loop, e *Expr) *Classification {
	if e == nil {
		return unknown()
	}
	acc := invariant(l, ConstExpr(e.Const))
	// Deterministic order. Locally allocated on purpose: exprClass can
	// re-enter itself through ClassOf, so it cannot share the scratch
	// sort buffer the non-recursive exprClsLocal uses.
	terms := make([]*ir.Value, 0, len(e.Terms))
	for v := range e.Terms {
		terms = append(terms, v)
	}
	slices.SortFunc(terms, ir.ByID)
	for _, v := range terms {
		c := a.ClassOf(l, v)
		acc = addCls(l, acc, scaleCls(l, c, e.Terms[v]))
		if acc.Kind == Unknown {
			return acc
		}
	}
	return acc
}

// invariantExprOf returns the affine form of an invariant classification,
// falling back to the defining value itself as an opaque atom.
func invariantExprOf(c *Classification, v *ir.Value) *Expr {
	if c.Expr != nil {
		return c.Expr
	}
	return VarExpr(v)
}

// ---- per-loop SSA graph ----

// node is one vertex of a loop's SSA graph: either an operation of the
// loop body, or a synthetic exit-value node standing for an inner-loop
// value seen from this loop (paper §5.3).
type node struct {
	v      *ir.Value
	exit   bool    // synthetic exit-value node
	expr   *Expr   // exit value (exit nodes only); nil = unknown
	guards []*Expr // nonnegativity obligations for expr (exit nodes)
	succ   []int
}

type loopCtx struct {
	a   *Analysis
	l   *loops.Loop
	scr *classifyScratch
	// nodes and cls alias the scratch buffers (stored back when the
	// loop completes, so capacity carries to the next loop). The old
	// idx/exitI value maps and the per-SCR working maps live in scr as
	// dense id-indexed tables.
	nodes []node
	cls   []*Classification
	// storedArrays caches which arrays the loop writes (for the §5.1
	// invariant-load rule); nil until first use.
	storedArrays map[string]bool
}

// arrayStoredIn reports whether the loop (including nested loops)
// writes the named array.
func (ctx *loopCtx) arrayStoredIn(name string) bool {
	if ctx.storedArrays == nil {
		ctx.storedArrays = map[string]bool{}
		for _, b := range ctx.l.Blocks {
			for _, v := range b.Values {
				if v.Op == ir.OpStoreElem {
					ctx.storedArrays[v.Var] = true
				}
			}
		}
	}
	return ctx.storedArrays[name]
}

// exprClsLocal folds an affine Expr into a classification using the
// in-flight per-node classifications (Tarjan pop order guarantees the
// terms an exit node depends on are classified before it pops).
func (ctx *loopCtx) exprClsLocal(e *Expr) *Classification {
	if e == nil {
		return unknown()
	}
	acc := invariant(ctx.l, ConstExpr(e.Const))
	// The scratch sort buffer is safe here: exprClsLocal never
	// re-enters itself (operandCls reads finished classifications).
	terms := ctx.scr.terms[:0]
	for v := range e.Terms {
		terms = append(terms, v)
	}
	slices.SortFunc(terms, ir.ByID)
	ctx.scr.terms = terms
	for _, v := range terms {
		acc = addCls(ctx.l, acc, scaleCls(ctx.l, ctx.operandCls(v), e.Terms[v]))
		if acc.Kind == Unknown {
			return acc
		}
	}
	return acc
}

// checkedExit returns an exit node's expression once its trip-count
// guards are proven nonnegative in this loop's context, else nil.
func (ctx *loopCtx) checkedExit(id int) *Expr {
	n := ctx.nodes[id]
	if !n.exit || n.expr == nil {
		return n.expr
	}
	switch ctx.scr.exitOK[id] {
	case 1:
		return n.expr
	case 2:
		return nil
	}
	ok := true
	for _, g := range n.guards {
		lo, _, hasLo, _ := boundsOf(ctx.exprClsLocal(g))
		if !hasLo || lo.Sign() < 0 {
			ok = false
			break
		}
	}
	if !ok {
		ctx.scr.exitOK[id] = 2
		return nil
	}
	ctx.scr.exitOK[id] = 1
	return n.expr
}

func (a *Analysis) analyzeLoop(l *loops.Loop) {
	scr := a.scr
	scr.sizeValueTables(a.SSA.Func.NumValues())
	ctx := &loopCtx{a: a, l: l, scr: scr, nodes: scr.nodes[:0]}

	// Direct members: values in blocks whose innermost loop is l.
	for _, b := range l.Blocks {
		if a.Forest.InnermostContaining(b) != l {
			continue
		}
		for _, v := range b.Values {
			ctx.setIdx(v, len(ctx.nodes))
			ctx.nodes = append(ctx.nodes, node{v: v})
		}
	}
	direct := len(ctx.nodes) // exit nodes are appended after this point

	// Edges; a worklist because exit nodes appear while wiring. Each
	// node's successor list is carved full-capacity from the shared
	// edge buffer once the node's edges are complete, so later nodes'
	// appends can never clobber it.
	edges := scr.edges[:0]
	for i := 0; i < len(ctx.nodes); i++ {
		base := len(edges)
		if ctx.nodes[i].exit {
			if e := ctx.nodes[i].expr; e != nil {
				terms := scr.terms[:0]
				for t := range e.Terms {
					terms = append(terms, t)
				}
				slices.SortFunc(terms, ir.ByID)
				scr.terms = terms
				for _, t := range terms {
					if id, ok := ctx.edgeTarget(t); ok {
						edges = append(edges, id)
					}
				}
			}
		} else {
			for _, arg := range ctx.nodes[i].v.Args {
				if id, ok := ctx.edgeTarget(arg); ok {
					edges = append(edges, id)
				}
			}
		}
		if len(edges) > base {
			ctx.nodes[i].succ = edges[base:len(edges):len(edges)]
		}
	}
	scr.edges = edges

	scr.sizeNodeTables(len(ctx.nodes))
	ctx.cls = scr.cls
	comps := scc.ComponentsScratch(len(ctx.nodes), func(i int) []int { return ctx.nodes[i].succ }, &scr.scc)
	for _, comp := range comps {
		a.budget.Steps(int64(len(comp)))
		if scc.IsTrivial(comp, func(i int) []int { return ctx.nodes[i].succ }) {
			ctx.cls[comp[0]] = ctx.classifyTrivial(comp[0])
		} else {
			ctx.classifySCR(comp)
		}
	}

	out := make(map[*ir.Value]*Classification, direct)
	for i := 0; i < direct; i++ {
		c := ctx.cls[i]
		if c == nil {
			c = unknown()
		}
		out[ctx.nodes[i].v] = c
	}
	a.byLoop[l] = out
	scr.nodes = ctx.nodes
}

// edgeTarget resolves an operand to a graph node, creating exit-value
// nodes for inner-loop operands. Loop-external operands are leaves
// (no edge).
func (ctx *loopCtx) edgeTarget(arg *ir.Value) (int, bool) {
	if id, ok := ctx.idxOf(arg); ok {
		return id, true
	}
	inner := ctx.a.Forest.InnermostContaining(arg.Block)
	if inner == nil || !ctx.l.ContainsLoop(inner) || inner == ctx.l {
		return 0, false // external leaf
	}
	if id, ok := ctx.exitNodeOf(arg); ok {
		return id, true
	}
	id := len(ctx.nodes)
	ctx.setExitNode(arg, id)
	ei := ctx.a.exitValue(arg)
	ctx.nodes = append(ctx.nodes, node{v: arg, exit: true, expr: ei.expr, guards: ei.guards})
	return id, true
}

// operandCls classifies an operand of a node: another node's (already
// computed) classification, or a leaf.
func (ctx *loopCtx) operandCls(arg *ir.Value) *Classification {
	if id, ok := ctx.nodeOf(arg); ok {
		if ctx.cls[id] != nil {
			return ctx.cls[id]
		}
		return unknown()
	}
	return ctx.a.leafClass(ctx.l, arg)
}

// operandExprInvariant returns the affine form of an operand required to
// be invariant; nil when the operand varies in the loop.
func (ctx *loopCtx) operandExprInvariant(arg *ir.Value) *Expr {
	c := ctx.operandCls(arg)
	if c.Kind != Invariant {
		return nil
	}
	return invariantExprOf(c, arg)
}

// isHeaderPhi reports whether node id is a φ at this loop's header.
func (ctx *loopCtx) isHeaderPhi(id int) bool {
	n := ctx.nodes[id]
	return !n.exit && n.v.Op == ir.OpPhi && n.v.Block == ctx.l.Header
}

// classifyTrivial classifies an acyclic node using the operator algebra
// (§5.1) and the wrap-around rule (§4.1).
func (ctx *loopCtx) classifyTrivial(id int) *Classification {
	n := ctx.nodes[id]
	l := ctx.l
	if n.exit {
		return ctx.exprClsLocal(ctx.checkedExit(id))
	}
	v := n.v
	switch v.Op {
	case ir.OpConst:
		c := invariant(l, IntExpr(v.Const))
		c.Rule = RuleInvariantConst
		return c
	case ir.OpParam:
		c := invariant(l, VarExpr(v))
		c.Rule = RuleInvariantLeaf
		return c
	case ir.OpCopy:
		return ctx.operandCls(v.Args[0])
	case ir.OpStoreElem:
		return ctx.operandCls(v.Args[1])
	case ir.OpLoadElem:
		// §5.1: "if the address is invariant ... the load is classified
		// as invariant". With no memory SSA the rule is sound exactly
		// when the loop never stores to the array at all; the loaded
		// value is then one fixed cell for the whole loop execution.
		if sub := ctx.operandCls(v.Args[0]); sub.Kind == Invariant && !ctx.arrayStoredIn(v.Var) {
			c := invariant(l, VarExpr(v))
			c.Rule = RuleInvariantLoad
			return c
		}
		return unknown()
	case ir.OpNeg:
		c := negCls(l, ctx.operandCls(v.Args[0]))
		if c.Rule == RuleNone {
			c.Rule = RuleAlgebra
		}
		return c
	case ir.OpPhi:
		if v.Block == l.Header {
			return ctx.classifyTrivialHeaderPhi(v)
		}
		// A join φ outside any cycle: all incoming classifications must
		// agree.
		first := ctx.operandCls(v.Args[0])
		for _, arg := range v.Args[1:] {
			if !sameClassification(first, ctx.operandCls(arg)) {
				return unknown()
			}
		}
		return first
	default:
		if v.Op.IsArith() || v.Op.IsCompare() {
			c := combine(l, v.Op, ctx.operandCls(v.Args[0]), ctx.operandCls(v.Args[1]))
			if c.Rule == RuleNone {
				c.Rule = RuleAlgebra
			}
			return c
		}
		return unknown()
	}
}

// classifyTrivialHeaderPhi handles a loop-header φ that is not part of
// any cycle: the carried value comes from elsewhere, so the φ is a
// wrap-around variable (paper §4.1) — or a plain induction variable if
// the initial value happens to fit the carried sequence.
func (ctx *loopCtx) classifyTrivialHeaderPhi(v *ir.Value) *Classification {
	l := ctx.l
	initArg, carriedArgs := splitPhiArgs(l, v)
	if initArg == nil || len(carriedArgs) == 0 {
		return unknown()
	}
	carried := ctx.operandCls(carriedArgs[0])
	for _, other := range carriedArgs[1:] {
		if !sameClassification(carried, ctx.operandCls(other)) {
			return unknown()
		}
	}
	init := ctx.a.leafExpr(initArg)

	wrap := func(order int, inner *Classification) *Classification {
		c := &Classification{Kind: WrapAround, Loop: l, Order: order, Init: init, Inner: inner, HeadPhi: v, Rule: RuleWrapAround}
		if rec := ctx.a.opts.Obs; rec != nil {
			rec.Count("iv.scr.wrap_around")
			rec.Decide(v.String(), RuleWrapAround.String(), c.String())
		}
		return c
	}
	switch carried.Kind {
	case Invariant:
		ce := invariantExprOf(carried, carriedArgs[0])
		if init.Equal(ce) {
			c := invariant(l, init)
			c.Rule = RuleJoinMerge
			return c
		}
		return wrap(1, carried)
	case Linear:
		// φ(h) = init for h = 0, carried(h-1) after: if init fits the
		// sequence (init == carried.Init - step) the φ is itself linear.
		if fit := SubExpr(carried.Init, carried.Step); fit != nil && fit.Equal(init) {
			return &Classification{Kind: Linear, Loop: l, Init: init, Step: carried.Step, HeadPhi: v, Rule: RuleLinearFamily}
		}
		return wrap(1, carried)
	case WrapAround:
		return wrap(carried.Order+1, carried.Inner)
	case Polynomial, Geometric, Periodic, Monotonic:
		return wrap(1, carried)
	default:
		return unknown()
	}
}

// splitPhiArgs separates a header φ's arguments into the loop-entry
// value and the loop-carried values.
func splitPhiArgs(l *loops.Loop, phi *ir.Value) (init *ir.Value, carried []*ir.Value) {
	for i, arg := range phi.Args {
		if l.Contains(phi.Block.Preds[i]) {
			carried = append(carried, arg)
		} else {
			if init != nil && init != arg {
				return nil, nil // multiple distinct entry values
			}
			init = arg
		}
	}
	return init, carried
}

// Report renders every loop's classifications, innermost first, in a
// stable textual form (used by cmd/ivclass and the tests).
func (a *Analysis) Report() string {
	var sb strings.Builder
	for _, l := range a.Forest.InnerToOuter() {
		fmt.Fprintf(&sb, "loop %s (depth %d)", l.Label, l.Depth)
		if tc := a.trips[l]; tc != nil {
			fmt.Fprintf(&sb, " trip=%s", tc)
		}
		sb.WriteByte('\n')
		m := a.byLoop[l]
		vals := make([]*ir.Value, 0, len(m))
		for v := range m {
			if v.Name == "" {
				continue // unnamed temporaries stay out of the report
			}
			vals = append(vals, v)
		}
		slices.SortFunc(vals, ir.ByID)
		for _, v := range vals {
			fmt.Fprintf(&sb, "  %s = %s\n", v, m[v])
		}
	}
	return sb.String()
}
