package depend

import (
	"fmt"
	"strings"
)

// methodRules maps each decision-procedure name to the paper rule it
// implements, for per-edge provenance (Result.Explain).
var methodRules = map[string]string{
	"zero-trip":                "§5.2 trip count: an enclosing loop runs zero times",
	"periodic":                 "§6 periodic rings (L22): residue classes of the iteration distance",
	"monotonic-strict":         "§6/Figure 10 strictly monotonic subscripts: distinct iterations, distinct cells",
	"monotonic-strict-at-site": "§5.4 strict-at-site refinement via postdominance of the strict increment",
	"monotonic":                "§6/Figure 10 monotonic subscripts: plateaus reuse cells only forward",
	"delta":                    "[GKT91]-style delta test over the distance space",
	"gcd+banerjee":             "§6 affine equation: GCD divisibility plus Banerjee interval bounds",
	"exact":                    "§6 affine equation: exact enumeration of the bounded iteration space",
	"polynomial-exact":         "§6 ([Ban76]): exact evaluation of polynomial/geometric closed forms",
	"periodic+affine":          "§6 composite subscripts: ring-slot enumeration over the affine equation",
	"affine":                   "§6 affine dependence equation over iteration counters",
	"assumed":                  "conservative assumption: subscripts escape every test of §6",
}

// MethodRule names the paper rule behind a Dependence.Method (the method
// string itself when unmapped).
func MethodRule(method string) string {
	if r, ok := methodRules[method]; ok {
		return r
	}
	return method
}

// Explain renders the provenance of one dependence edge: the decision
// procedure (by paper rule), the dependence equation, the direction and
// distance information, and the classification chains of both
// subscripts as established by the induction-variable analysis.
func (r *Result) Explain(d *Dependence) string {
	var sb strings.Builder
	r.explain(&sb, d, nil)
	return sb.String()
}

// ExplainAll renders Explain for every dependence, in report order,
// joined by blank lines. Dependences share accesses, so each access's
// subscript chain is rendered once per call and reused by every edge
// that touches it.
func (r *Result) ExplainAll() string {
	text, _ := r.explainAll()
	return text
}

// explainAll is ExplainAll, also returning how many subscript chains it
// rendered.
func (r *Result) explainAll() (string, int) {
	var sb strings.Builder
	chains := map[*Access]string{}
	for i, d := range r.Deps {
		if i > 0 {
			sb.WriteByte('\n')
		}
		r.explain(&sb, d, chains)
	}
	return sb.String(), len(chains)
}

// explain writes d's provenance to sb. With a non-nil chains map each
// access's indented subscript chain is rendered on first use and
// reused after.
func (r *Result) explain(sb *strings.Builder, d *Dependence, chains map[*Access]string) {
	fmt.Fprintf(sb, "%s\n", d)
	fmt.Fprintf(sb, "  rule: %s\n", MethodRule(d.Method))
	if d.Equation != "" {
		fmt.Fprintf(sb, "  equation: %s\n", d.Equation)
	}
	if d.AfterIterations > 0 {
		fmt.Fprintf(sb, "  holds only after %d iteration(s): a wrap-around subscript (§4.1) is still on its initial value before that\n",
			d.AfterIterations)
	}
	if d.Modulus > 1 {
		fmt.Fprintf(sb, "  iteration distance ≡ %d (mod %d): the periodic ring (§4.2) collides only in these residue classes\n",
			d.Residue, d.Modulus)
	}
	for _, side := range []struct {
		label string
		ac    *Access
	}{{"src", d.Src}, {"dst", d.Dst}} {
		if side.ac.Loop == nil {
			fmt.Fprintf(sb, "  %s subscript %s: outside any loop\n", side.label, side.ac.Value.Args[0])
			continue
		}
		fmt.Fprintf(sb, "  %s subscript classification:\n", side.label)
		chain, ok := chains[side.ac]
		if !ok {
			chain = r.subscriptChain(side.ac)
			if chains != nil {
				chains[side.ac] = chain
			}
		}
		sb.WriteString(chain)
	}
}

// subscriptChain renders the classification chain of ac's subscript,
// each line indented under its side's heading.
func (r *Result) subscriptChain(ac *Access) string {
	var sb strings.Builder
	chain := r.Analysis.Explain(ac.Loop, ac.Value.Args[0])
	for _, line := range strings.Split(strings.TrimRight(chain, "\n"), "\n") {
		fmt.Fprintf(&sb, "    %s\n", line)
	}
	return sb.String()
}
