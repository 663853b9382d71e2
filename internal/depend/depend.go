// Package depend implements the data dependence testing of §6: for each
// pair of subscripted references to the same array it constructs a
// dependence equation from the induction-variable classifications and
// decides whether integer solutions exist within the loop bounds,
// refining by direction vector.
//
// Beyond the classical affine tests (GCD, Banerjee bounds with direction
// constraints, and exact enumeration of small iteration spaces), the
// tester exploits the paper's extended classes:
//
//   - wrap-around subscripts shift onto their post-warm-up induction
//     sequence, and the dependence is flagged as holding only after the
//     wrap-around order's iterations (§6);
//   - periodic subscripts of one family with distinct ring values
//     translate an `=` solution on the family into a ≠ / modular
//     distance constraint on the iterations (§6, loop L22);
//   - monotonic subscripts of one family give (=) directions when
//     strict and (≤) when not (§6 and Figure 10).
package depend

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
	"beyondiv/internal/obs"
	"beyondiv/internal/scratch"
)

// Access is one array reference.
type Access struct {
	Value *ir.Value // LoadElem or StoreElem
	Array string
	Write bool
	Loop  *loops.Loop // innermost enclosing loop (nil outside loops)
	// Order is the access's program position for intra-iteration
	// ordering.
	Order int

	// Per-access test setup, derived once by the tester and reused
	// across the O(pairs) loop: the subscript classification, its
	// wrap-around-unwrapped refinement with the §6 after-iterations
	// order, the affine iteration form, and the form's text as either
	// side of a dependence equation (see equationSide).
	cls       *iv.Classification
	unwrapped *iv.Classification
	after     int
	form      *iv.IterForm
	clsDone   bool
	formDone  bool
	text      [2]string
}

// String renders e.g. "a[i2] (write at b3)".
func (ac *Access) String() string {
	kind := "read"
	if ac.Write {
		kind = "write"
	}
	return fmt.Sprintf("%s[%s] (%s %s)", ac.Array, ac.Value.Args[0], kind, ac.Value)
}

// equationSide renders the access's iteration form as side A (0) or B
// (1) of a dependence equation, B's counters primed: "1 + h(L1)" and
// "1 + h'(L1)". Memoized, so each access renders once per run however
// many dependent pairs it joins; the form must already be derived.
func (ac *Access) equationSide(side int) string {
	if ac.text[side] == "" {
		if side == 0 {
			ac.text[0] = ac.form.String()
		} else {
			ac.text[1] = strings.ReplaceAll(ac.equationSide(0), "h(", "h'(")
		}
	}
	return ac.text[side]
}

// Dir is a set of iteration-order relations between source and sink.
type Dir uint8

// Direction bits.
const (
	DirLT Dir = 1 << iota // source iteration strictly before sink
	DirEQ                 // same iteration
	DirGT                 // source iteration after sink (only in unordered summaries)
)

// All is the uninformative direction.
const DirAll = DirLT | DirEQ | DirGT

// String renders the direction in the paper's notation.
func (d Dir) String() string {
	switch d {
	case DirLT:
		return "<"
	case DirEQ:
		return "="
	case DirGT:
		return ">"
	case DirLT | DirEQ:
		return "<="
	case DirGT | DirEQ:
		return ">="
	case DirLT | DirGT:
		return "!="
	case DirAll:
		return "*"
	case 0:
		return "none"
	}
	return "?"
}

// Kind distinguishes dependence sorts.
type Kind int

// Dependence kinds.
const (
	Flow   Kind = iota // write then read
	Anti               // read then write
	Output             // write then write
	Input              // read then read (reported only on request)
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Input:
		return "input"
	}
	return "?"
}

// Dependence records one dependence from Src to Dst (Src executes
// first).
type Dependence struct {
	Src, Dst *Access
	Kind     Kind
	// Loops is the common nest, outermost first; Dirs has one entry per
	// loop.
	Loops []*loops.Loop
	Dirs  []Dir
	// AfterIterations > 0 flags a wrap-around participant: the relation
	// holds only from that iteration on (§6).
	AfterIterations int
	// Modulus/Residue, when Modulus > 1, constrain the innermost-loop
	// distance: dst_iter - src_iter ≡ Residue (mod Modulus). Produced by
	// periodic families (§6, L22).
	Modulus, Residue int
	// Distance, when non-nil, is the exact constant iteration distance
	// (dst - src) per common loop — the distance vector the paper's
	// L23/L24 discussion works with. Only set when every loop's
	// distance is a single constant (strong-SIV shapes).
	Distance []int64
	// Equation is the printable dependence equation, e.g.
	// "1 + h = 2 + 2·h'".
	Equation string
	// Method names the decision procedure that admitted the dependence.
	Method string
}

// String renders one dependence line.
func (d *Dependence) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s dep: %s -> %s", d.Kind, d.Src, d.Dst)
	if len(d.Dirs) > 0 {
		parts := make([]string, len(d.Dirs))
		for i, dir := range d.Dirs {
			parts[i] = dir.String()
		}
		fmt.Fprintf(&sb, " directions (%s)", strings.Join(parts, ", "))
	}
	if d.Distance != nil {
		parts := make([]string, len(d.Distance))
		for i, v := range d.Distance {
			parts[i] = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(&sb, " distance (%s)", strings.Join(parts, ", "))
	}
	if d.AfterIterations > 0 {
		fmt.Fprintf(&sb, " [after %d iterations]", d.AfterIterations)
	}
	if d.Modulus > 1 {
		fmt.Fprintf(&sb, " [distance ≡ %d mod %d]", d.Residue, d.Modulus)
	}
	if d.Method != "" {
		fmt.Fprintf(&sb, " {%s}", d.Method)
	}
	return sb.String()
}

// Result is the dependence analysis of a program.
type Result struct {
	Analysis *iv.Analysis
	Accesses []*Access
	Deps     []*Dependence
	// Independent counts pairs proven dependence-free.
	Independent int

	// verdicts is this run's affine verdict table, keyed by equation
	// (verdict.go); the next analysis of the program reads it. Nil
	// when the run tested no affine equation; immutable once Analyze
	// returns.
	verdicts map[string]*verdict
	// fanout is the parallel pair sweep's pairs and workers, zero for a
	// sequential sweep; Pass publishes it.
	fanout struct{ pairs, workers int }
}

// Options configure the analysis. Both fields change results, so
// Fingerprint encodes every one of them; the run's recorder, limits,
// scratch arena and fan-out width are not options but come from the
// engine (see Pass).
type Options struct {
	// IncludeInput reports read-read dependences too.
	IncludeInput bool
	// MaxExact bounds the iteration-space size enumerated exactly.
	MaxExact int
}

// Fingerprint identifies the options for content-addressed caching.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("input:%t,maxexact:%d", o.IncludeInput, o.maxExact())
}

func (o Options) maxExact() int {
	if o.MaxExact > 0 {
		return o.MaxExact
	}
	return 1 << 16
}

// Analyze runs dependence testing over every array-reference pair: no
// telemetry, no limits, fresh working tables, one goroutine.
func Analyze(a *iv.Analysis, opts Options) *Result {
	return analyzeRun(a, opts, nil, nil, guard.Limits{}, nil, 1)
}

// analyzeRun is Analyze under a run, reusing the affine verdicts of
// prev, the result this one replaces (nil: none). rec (nil: off)
// receives the "depend" phase span, per-test counters
// (depend.test.<name>.<outcome>) and per-edge provenance events; lim
// charges a step budget per pair and per direction-vector test (a
// ceiling hit panics with a *guard.LimitError, contained by the
// engine); ar (nil: fresh tables) lends the working tables; above 1,
// workers fans the pair sweep out once the pair count clears the
// work-size threshold, merging back in (a.Order, b.Order) order,
// bit-identical to the sequential sweep. None of them changes a
// result, and the Result keeps none of them.
func analyzeRun(a *iv.Analysis, opts Options, prev *Result, rec *obs.Recorder, lim guard.Limits, ar *scratch.Arena, workers int) *Result {
	span := rec.Phase("depend")
	defer span.End()

	r := &Result{Analysis: a}
	r.collectAccesses()
	if rec != nil {
		rec.Add("depend.accesses", int64(len(r.Accesses)))
	}

	byArray := map[string][]*Access{}
	for _, ac := range r.Accesses {
		byArray[ac.Array] = append(byArray[ac.Array], ac)
	}
	arrays := make([]string, 0, len(byArray))
	for name := range byArray {
		arrays = append(arrays, name)
	}
	sort.Strings(arrays)

	tester := &tester{a: a, opts: opts, rec: rec, budget: lim.Budget("depend")}
	if prev != nil {
		tester.prev = prev.verdicts
	}
	if ar != nil {
		tester.scr = scratch.Get[dependScratch](&ar.Depend)
	} else {
		tester.scr = &dependScratch{}
	}
	if !testParallel(r, tester, byArray, arrays, lim, workers) {
		testSequential(r, tester, byArray, arrays)
	}
	r.verdicts = tester.verdicts
	return r
}

// testSequential runs the pair sweep on the calling goroutine.
func testSequential(r *Result, tester *tester, byArray map[string][]*Access, arrays []string) {
	for _, name := range arrays {
		list := byArray[name]
		for i := 0; i < len(list); i++ {
			for j := i; j < len(list); j++ {
				if skipPair(list[i], list[j], i == j, tester.opts) {
					continue
				}
				deps, independent := tester.testPair(list[i], list[j])
				r.Deps = append(r.Deps, deps...)
				if independent {
					r.Independent++
				}
			}
		}
	}
}

// skipPair is the pair-sweep admission rule shared by the sequential
// and parallel paths: a read is never paired with itself, and
// read-read pairs are tested only on request.
func skipPair(a, b *Access, same bool, opts Options) bool {
	if same && !a.Write {
		return true
	}
	return !a.Write && !b.Write && !opts.IncludeInput
}

func (r *Result) collectAccesses() {
	// Value IDs are assigned during lowering in source order, which is
	// exactly intra-iteration execution order — block IDs are not (an
	// else block is created after its join), and reverse postorder
	// interleaves sibling structures.
	for _, b := range r.Analysis.SSA.Func.Blocks {
		for _, v := range b.Values {
			switch v.Op {
			case ir.OpLoadElem, ir.OpStoreElem:
				r.Accesses = append(r.Accesses, &Access{
					Value: v,
					Array: v.Var,
					Write: v.Op == ir.OpStoreElem,
					Loop:  r.Analysis.Forest.InnermostContaining(b),
					Order: v.ID,
				})
			}
		}
	}
	slices.SortFunc(r.Accesses, byOrder)
}

// Report renders all dependences in a stable order.
func (r *Result) Report() string {
	var sb strings.Builder
	for _, d := range r.Deps {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d dependences, %d pairs independent\n", len(r.Deps), r.Independent)
	return sb.String()
}

// byOrder sorts accesses by program position — the shared comparator
// for every deterministic access ordering (slices.SortFunc).
func byOrder(a, b *Access) int { return a.Order - b.Order }

// commonLoops returns the loops enclosing both accesses, outermost
// first. The shared loops are exactly the ancestors of the two nests'
// lowest common ancestor, found by walking the deeper chain up to equal
// depth and then both chains in lockstep — no allocation beyond the
// result.
func commonLoops(a, b *Access) []*loops.Loop {
	la, lb := a.Loop, b.Loop
	for la != nil && lb != nil && la != lb {
		switch {
		case la.Depth > lb.Depth:
			la = la.Parent
		case lb.Depth > la.Depth:
			lb = lb.Parent
		default:
			la, lb = la.Parent, lb.Parent
		}
	}
	if la == nil || lb == nil {
		return nil
	}
	n := 0
	for l := la; l != nil; l = l.Parent {
		n++
	}
	out := make([]*loops.Loop, n)
	for l := la; l != nil; l = l.Parent {
		n--
		out[n] = l
	}
	return out
}

// Stats summarizes a dependence analysis: counts per kind and per
// decision method, for reporting and regression tracking.
type Stats struct {
	ByKind   map[Kind]int
	ByMethod map[string]int
	Total    int
	// Exact counts dependences with a full distance vector.
	Exact int
}

// Stats computes the summary.
func (r *Result) Stats() Stats {
	s := Stats{ByKind: map[Kind]int{}, ByMethod: map[string]int{}}
	for _, d := range r.Deps {
		s.Total++
		s.ByKind[d.Kind]++
		s.ByMethod[d.Method]++
		if d.Distance != nil {
			s.Exact++
		}
	}
	return s
}
