package iv

import (
	"fmt"
	"slices"
	"strings"

	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
)

// Rule identifies the classification rule that produced a
// Classification, for provenance reporting ("why was j linear?"). The
// zero value means the producing site did not annotate; Explain then
// derives a rule from the Kind alone.
type Rule uint8

// Rules, named after the paper sections that define them.
const (
	RuleNone Rule = iota
	// RuleInvariantLeaf: the value is defined outside the loop.
	RuleInvariantLeaf
	// RuleInvariantConst: constant propagation (Wegman–Zadeck) proved a
	// single value.
	RuleInvariantConst
	// RuleInvariantLoad: §5.1's invariant-address load from an array the
	// loop never stores to.
	RuleInvariantLoad
	// RuleAlgebra: §5.1's algebra of types and operators over already
	// classified operands.
	RuleAlgebra
	// RuleJoinMerge: a non-header φ whose incoming classifications agree.
	RuleJoinMerge
	// RuleWrapAround: §4.1's wrap-around rule at a loop-header φ whose
	// carried value is classified outside the φ's own cycle.
	RuleWrapAround
	// RuleLinearFamily: §3.1's equal-offset linear family (Figure 3).
	RuleLinearFamily
	// RuleLinearCumulative: the §4.3 cumulative effect degenerating to
	// X' = X + invariant.
	RuleLinearCumulative
	// RulePeriodicRing: §4.2's rotation ring of header φs and copies.
	RulePeriodicRing
	// RuleFlipFlop: §4.2's flip-flop recurrence X' = c − X.
	RuleFlipFlop
	// RulePolynomial: §4.3's cumulative effect X' = X + β with β an
	// induction variable.
	RulePolynomial
	// RuleGeometric: §4.3's cumulative effect X' = a·X + β with |a| ≥ 2.
	RuleGeometric
	// RuleMonotonicRange: §4.4's same-signed conditional increments.
	RuleMonotonicRange
	// RuleMonotonicGrowth: §4.4's extension admitting multiplications
	// ("such as 2*i+i, as long as the initial value of i is known").
	RuleMonotonicGrowth
	// RuleExitValue: §5.3's exit-value propagation out of an inner loop.
	RuleExitValue
	// RuleUnclassified: the SCR matched no rule.
	RuleUnclassified
)

var ruleNames = map[Rule]string{
	RuleNone:             "unannotated",
	RuleInvariantLeaf:    "loop-external definition (invariant)",
	RuleInvariantConst:   "constant propagation (Wegman–Zadeck SCCP)",
	RuleInvariantLoad:    "§5.1 invariant load (array never stored in loop)",
	RuleAlgebra:          "§5.1 operator algebra over classified operands",
	RuleJoinMerge:        "join φ with agreeing incoming classifications",
	RuleWrapAround:       "§4.1 wrap-around header φ",
	RuleLinearFamily:     "§3.1 linear induction family (Figure 3, equal offsets)",
	RuleLinearCumulative: "§4.3 cumulative effect, degenerate X' = X + invariant",
	RulePeriodicRing:     "§4.2 periodic rotation ring",
	RuleFlipFlop:         "§4.2 flip-flop X' = c − X (periodic, period 2)",
	RulePolynomial:       "§4.3 polynomial via cumulative effect X' = X + β",
	RuleGeometric:        "§4.3 geometric via cumulative effect X' = a·X + β",
	RuleMonotonicRange:   "§4.4 monotonic (same-signed increments)",
	RuleMonotonicGrowth:  "§4.4 monotonic growth (adds and multiplies, known start)",
	RuleExitValue:        "§5.3 exit value of an inner loop",
	RuleUnclassified:     "no classification rule matched the SCR",
}

// String names the rule in paper terms.
func (r Rule) String() string {
	if s, ok := ruleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// ruleOf returns the classification's recorded rule, falling back to a
// kind-derived rule when the producing site did not annotate.
func ruleOf(c *Classification) Rule {
	if c.Rule != RuleNone {
		return c.Rule
	}
	switch c.Kind {
	case Invariant:
		return RuleInvariantLeaf
	case Linear:
		return RuleLinearFamily
	case Polynomial:
		return RulePolynomial
	case Geometric:
		return RuleGeometric
	case WrapAround:
		return RuleWrapAround
	case Periodic:
		return RulePeriodicRing
	case Monotonic:
		return RuleMonotonicRange
	default:
		return RuleUnclassified
	}
}

// ruleDetail renders the kind-specific provenance line: what the rule
// computed, with enough structure to re-derive the tuple.
func ruleDetail(c *Classification) string {
	switch c.Kind {
	case Invariant:
		if c.Expr != nil {
			return fmt.Sprintf("value is %s on every iteration", c.Expr)
		}
		return "value does not change within the loop (not affine)"
	case Linear:
		return fmt.Sprintf("value(h) = %s + %s·h", c.Init, c.Step)
	case Polynomial:
		if c.Coeffs != nil {
			return fmt.Sprintf("order %d, coefficients solved from %d simulated samples via Vandermonde inversion",
				c.Order, len(c.Coeffs))
		}
		return fmt.Sprintf("order %d, order-only (symbolic initial value blocks the Vandermonde solve)", c.Order)
	case Geometric:
		if c.Coeffs != nil {
			return fmt.Sprintf("base %d, coefficients solved via geometric Vandermonde inversion", c.Base)
		}
		return fmt.Sprintf("base %d, base-only (symbolic initial value blocks the Vandermonde solve)", c.Base)
	case WrapAround:
		return fmt.Sprintf("holds init %s for the first %d iteration(s), then follows the carried classification delayed by %d",
			c.Init, c.Order, c.Order)
	case Periodic:
		if len(c.Initials) == c.Period {
			parts := make([]string, len(c.Initials))
			for i, e := range c.Initials {
				parts[i] = e.String()
			}
			return fmt.Sprintf("period %d, phase %d, ring (%s)", c.Period, c.Phase, strings.Join(parts, ", "))
		}
		return fmt.Sprintf("period %d, phase %d", c.Period, c.Phase)
	case Monotonic:
		dir := "non-decreasing"
		if c.Dir < 0 {
			dir = "non-increasing"
		}
		if c.Strict {
			if c.Dir > 0 {
				dir = "strictly increasing"
			} else {
				dir = "strictly decreasing"
			}
		}
		return fmt.Sprintf("value is %s across iterations", dir)
	default:
		return "operands escape every rule of §3–§5"
	}
}

// explainer renders provenance chains for one call. It caches each
// SCR's rendered member list, so a run over many values costs the text
// it writes. It lives for one call: the Analysis, which cached states
// share across goroutines, keeps nothing.
type explainer struct {
	a      *Analysis
	lines  map[scrKey]string                         // rendered "SCR {…}" member lists
	groups map[*loops.Loop]map[*ir.Value][]*ir.Value // loop → head φ → members (see members)
	vals   []*ir.Value                               // each's per-loop buffer
	work   int                                       // classified values visited (tests pin it linear)
}

type scrKey struct {
	l    *loops.Loop
	head *ir.Value
}

// each calls fn on every classified value keep admits, loops innermost
// first and values by SSA id within a loop: the order of every
// explanation and of ExplainKeys.
func (x *explainer) each(keep func(*ir.Value) bool, fn func(*loops.Loop, *ir.Value)) {
	for _, l := range x.a.Forest.InnerToOuter() {
		m := x.a.byLoop[l]
		x.work += len(m)
		vals := x.vals[:0]
		for v := range m {
			if keep(v) {
				vals = append(vals, v)
			}
		}
		slices.SortFunc(vals, ir.ByID)
		for _, v := range vals {
			fn(l, v)
		}
		x.vals = vals
	}
}

// scr renders the members of c's SCR — the values of its loop
// classified into the same family (same anchoring header φ), by SSA id —
// or "" when c has no family.
func (x *explainer) scr(c *Classification) string {
	if c.HeadPhi == nil || c.Loop == nil {
		return ""
	}
	key := scrKey{c.Loop, c.HeadPhi}
	if line, ok := x.lines[key]; ok {
		return line
	}
	members := x.members(c.Loop, c.HeadPhi)
	slices.SortFunc(members, ir.ByID)
	names := make([]string, len(members))
	for i, m := range members {
		s := m.String()
		if m.Op == ir.OpPhi {
			s = "φ " + s
		}
		names[i] = s
	}
	line := strings.Join(names, ", ")
	if x.lines == nil {
		x.lines = map[scrKey]string{}
	}
	x.lines[key] = line
	return line
}

// members returns the values of loop l classified into head's family.
// A loop's first family is found by a scan, all one explanation needs;
// the second groups the whole loop by head φ, so explaining every
// family costs two passes over the loop, not one per family.
func (x *explainer) members(l *loops.Loop, head *ir.Value) []*ir.Value {
	groups, scanned := x.groups[l]
	if groups != nil {
		return groups[head]
	}
	m := x.a.byLoop[l]
	x.work += len(m)
	if x.groups == nil {
		x.groups = map[*loops.Loop]map[*ir.Value][]*ir.Value{}
	}
	if !scanned {
		x.groups[l] = nil
		var out []*ir.Value
		for v, vc := range m {
			if vc != nil && vc.HeadPhi == head {
				out = append(out, v)
			}
		}
		return out
	}
	groups = map[*ir.Value][]*ir.Value{}
	for v, vc := range m {
		if vc != nil && vc.HeadPhi != nil {
			groups[vc.HeadPhi] = append(groups[vc.HeadPhi], v)
		}
	}
	x.groups[l] = groups
	return groups[head]
}

// explain writes v's provenance chain in loop l: the rule that fired
// (by paper section), its detail, the SCR members the rule consumed, and
// the feeding classifications, recursively.
func (x *explainer) explain(sb *strings.Builder, l *loops.Loop, v *ir.Value) {
	c := x.a.ClassOf(l, v)
	label := "?"
	if l != nil {
		label = l.Label
	}
	fmt.Fprintf(sb, "%s in loop %s: %s\n", v, label, c)
	x.chain(sb, c, 1)
}

func (x *explainer) chain(sb *strings.Builder, c *Classification, depth int) {
	if c == nil || depth > 6 {
		return
	}
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%srule: %s\n", pad, ruleOf(c))
	fmt.Fprintf(sb, "%s      %s\n", pad, ruleDetail(c))
	if members := x.scr(c); members != "" {
		fmt.Fprintf(sb, "%s      SCR {%s}\n", pad, members)
	}
	if c.Kind == WrapAround && c.Inner != nil {
		fmt.Fprintf(sb, "%sfed by carried value: %s\n", pad, c.Inner)
		x.chain(sb, c.Inner, depth+1)
	}
	if c.Beta != nil {
		fmt.Fprintf(sb, "%sfed by recurrence step β = %s\n", pad, c.Beta)
		x.chain(sb, c.Beta, depth+1)
	}
}

// Explain renders the provenance chain of v's classification in loop l:
// the rule that fired (by paper section), its detail, the SCR members
// the rule consumed, and the feeding classifications, recursively.
func (a *Analysis) Explain(l *loops.Loop, v *ir.Value) string {
	var sb strings.Builder
	(&explainer{a: a}).explain(&sb, l, v)
	return sb.String()
}

// ExplainVar renders the provenance chains for every classified value
// whose SSA name or source variable matches name, across all loops
// (innermost first). An empty result means no such variable exists.
func (a *Analysis) ExplainVar(name string) string {
	var sb strings.Builder
	x := &explainer{a: a}
	x.each(func(v *ir.Value) bool { return a.varMatches(v, name) },
		func(l *loops.Loop, v *ir.Value) { x.explain(&sb, l, v) })
	return sb.String()
}

// ExplainKeys enumerates every name ExplainVar has an answer for: for
// each classified value (loops innermost first, values by SSA id) its
// SSA name, that name with the version suffix stripped, and the
// renamer's source-variable record — exactly the names varMatches
// accepts, first occurrence only. The order is structural: two
// α-renamed programs yield tables of the same length whose entries
// correspond position by position, which is what lets the codec align
// per-key provenance texts between a program and its rename twin.
func (a *Analysis) ExplainKeys() []string {
	keys, _, _ := (&explainer{a: a}).all(false)
	return keys
}

// ExplainAll is ExplainKeys and, for each key, ExplainVar's text, in one
// pass: each value's chain is rendered once and appended to the texts
// of the (at most three) keys that name it, so the whole table costs
// the text it holds.
func (a *Analysis) ExplainAll() (keys, texts []string) {
	keys, texts, _ = (&explainer{a: a}).all(true)
	return keys, texts
}

// all is ExplainAll, or ExplainKeys when render is false, also
// returning the renderer's work.
func (x *explainer) all(render bool) (keys, texts []string, work int) {
	index := map[string]int{}
	var bufs []*strings.Builder
	x.each(func(v *ir.Value) bool { return v.Name != "" }, func(l *loops.Loop, v *ir.Value) {
		chain := ""
		names, n := x.a.namesOf(v)
		for _, k := range names[:n] {
			i, ok := index[k]
			if !ok {
				i = len(keys)
				index[k] = i
				keys = append(keys, k)
				if render {
					bufs = append(bufs, &strings.Builder{})
				}
			}
			if render {
				if chain == "" {
					var sb strings.Builder
					x.explain(&sb, l, v)
					chain = sb.String()
				}
				bufs[i].WriteString(chain)
			}
		}
	})
	if render {
		texts = make([]string, len(bufs))
		for i, b := range bufs {
			texts[i] = b.String()
		}
	}
	return keys, texts, x.work
}

// namesOf is the distinct names varMatches accepts for v, which has an
// SSA name, in ExplainKeys order: that name, it with the version suffix
// stripped, and the renamer's source-variable record.
func (a *Analysis) namesOf(v *ir.Value) (names [3]string, n int) {
	source := ""
	if a.SSA != nil {
		source = a.SSA.VarOf(v)
	}
	for _, k := range [3]string{v.Name, strings.TrimRight(v.Name, "0123456789"), source} {
		if k != "" && !slices.Contains(names[:n], k) {
			names[n] = k
			n++
		}
	}
	return names, n
}

// varMatches reports whether v is a version of the named variable: an
// exact SSA-name match ("j2"), the renamer's source-variable record, or
// the SSA name with its version suffix stripped ("j").
func (a *Analysis) varMatches(v *ir.Value, name string) bool {
	if v.Name == "" {
		return false
	}
	if v.Name == name {
		return true
	}
	if a.SSA != nil && a.SSA.VarOf(v) == name {
		return true
	}
	base := strings.TrimRight(v.Name, "0123456789")
	return base == name
}
